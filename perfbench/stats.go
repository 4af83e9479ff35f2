package main

import (
	"math"
	rtmetrics "runtime/metrics"
	"sort"
	"sync"
	"syscall"
	"time"
)

// percentile returns the nearest-rank q-quantile of xs (q in (0,1]); xs
// must be sorted ascending.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	if i < 0 {
		i = 0
	}
	return xs[i]
}

// median of an unsorted slice (copied, not reordered).
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) == 0 {
		return 0
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// geomean is the geometric mean of positive values; 0 for none.
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += math.Log(x)
	}
	return math.Exp(s / float64(len(xs)))
}

// processCPU is the user plus system CPU time of the whole process so far.
// Time the host takes the CPU away from the machine (steal) is not in it.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// ms converts a duration to fractional milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// latencies collects client-observed statement latencies per operation
// class. Safe for concurrent use by the load sessions.
type latencies struct {
	mu  sync.Mutex
	by  map[opClass][]float64
	err map[opClass]int
}

func newLatencies() *latencies {
	return &latencies{by: map[opClass][]float64{}, err: map[opClass]int{}}
}

func (l *latencies) add(c opClass, d time.Duration) {
	l.mu.Lock()
	l.by[c] = append(l.by[c], ms(d))
	l.mu.Unlock()
}

func (l *latencies) fail(c opClass) {
	l.mu.Lock()
	l.err[c]++
	l.mu.Unlock()
}

// sorted returns the sorted latencies (ms) of the given classes pooled.
func (l *latencies) sorted(cs ...opClass) []float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	var out []float64
	for _, c := range cs {
		out = append(out, l.by[c]...)
	}
	sort.Float64s(out)
	return out
}

func (l *latencies) failures() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	n := 0
	for _, v := range l.err {
		n += v
	}
	return n
}

// heapSampler records the peak of live-plus-unswept heap object bytes
// (runtime/metrics, no stop-the-world) while running.
type heapSampler struct {
	stop chan struct{}
	done chan struct{}
	peak uint64
}

const heapMetric = "/memory/classes/heap/objects:bytes"

func heapBytes() uint64 {
	s := []rtmetrics.Sample{{Name: heapMetric}}
	rtmetrics.Read(s)
	return s[0].Value.Uint64()
}

// allocBytes is the cumulative bytes allocated on the heap by the process.
func allocBytes() uint64 {
	s := []rtmetrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	rtmetrics.Read(s)
	return s[0].Value.Uint64()
}

func startHeapSampler(every time.Duration) *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan struct{}), peak: heapBytes()}
	go func() {
		defer close(h.done)
		t := time.NewTicker(every)
		defer t.Stop()
		for {
			select {
			case <-h.stop:
				return
			case <-t.C:
				if b := heapBytes(); b > h.peak {
					h.peak = b
				}
			}
		}
	}()
	return h
}

// Stop ends sampling and returns the peak in MiB.
func (h *heapSampler) Stop() float64 {
	close(h.stop)
	<-h.done
	if b := heapBytes(); b > h.peak {
		h.peak = b
	}
	return float64(h.peak) / (1 << 20)
}

// pearson is the correlation coefficient of two equal-length series.
func pearson(xs, ys []float64) float64 {
	n := float64(len(xs))
	if n < 2 {
		return 0
	}
	mx, my := mean(xs), mean(ys)
	var num, dx, dy float64
	for i := range xs {
		a, b := xs[i]-mx, ys[i]-my
		num += a * b
		dx += a * a
		dy += b * b
	}
	if dx == 0 || dy == 0 {
		return 0
	}
	return num / math.Sqrt(dx*dy)
}
