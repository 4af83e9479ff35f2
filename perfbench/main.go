// Command perfbench is MURAL's benchmark: it sets up one named workload
// from a seed, drives it with closed-loop wire sessions for a fixed window,
// checks every answer against an independent oracle and prints the
// end-to-end metrics, or, with -trace 1, replays the workload with spans
// around every layer call and prints the per-layer metrics.
//
//	go run . -workload lookup -seed 1 -seconds 30 -trace 0
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics"}.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strings"
	"time"

	"github.com/mural-db/mural/internal/client"
	"github.com/mural-db/mural/internal/phonetic"
)

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// setupRepeats is how many times a run sets its workload up; setup_s is
// the median.
const setupRepeats = 3

func main() {
	name := flag.String("workload", "", "workload: lookup, psi-join, ingest or sharded-lookup")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Float64("seconds", 30, "measured window in seconds")
	trace := flag.Int("trace", 0, "1 runs the traced per-layer pass instead of the end-to-end pass")
	flag.Parse()
	w := findWorkload(*name)
	if w == nil {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *name)
		os.Exit(2)
	}
	r := &run{w: w, seed: *seed, sz: w.sizes(false), traces: filepath.Join(".bench_build", "traces")}
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	work, err := os.MkdirTemp(".bench_build", "run-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	r.work = work
	window := time.Duration(*seconds * float64(time.Second))
	var res *result
	var rec map[string]any
	calib := []float64{calibrate()}
	if *trace == 1 {
		res, rec, err = runTraced(r, window)
	} else {
		res, rec, err = runPlain(r, window)
	}
	calib = append(calib, calibrate())
	if rerr := os.RemoveAll(work); err == nil && rerr != nil {
		err = rerr
	}
	if err == nil {
		err = checkDeclared("BENCHMARK.json", *trace == 1, res)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	rec["machine"] = machine()
	rec["calibration_ns"] = calib
	rec["workload"], rec["seed"], rec["seconds"], rec["trace"] = w.name, *seed, *seconds, *trace
	emit(os.Stdout, "run", rec)
	emit(os.Stdout, "", res)
	if !res.Correct {
		os.Exit(1)
	}
}

// checkDeclared requires the result to carry exactly the metrics the
// benchmark definition declares for the pass, each with its unit.
func checkDeclared(path string, traced bool, res *result) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var def struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &def); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	want := def.EndToEnd
	if traced {
		want = def.PerLayer
	}
	for _, d := range want {
		m, ok := res.Metrics[d.Name]
		if !ok || m.Unit != d.Unit {
			return fmt.Errorf("metric %s [%s] missing or with another unit (%+v)", d.Name, d.Unit, m)
		}
	}
	if len(res.Metrics) != len(want) {
		return fmt.Errorf("%d metrics emitted, %s declares %d", len(res.Metrics), path, len(want))
	}
	return nil
}

func emit(w io.Writer, tag string, v any) {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	if tag != "" {
		fmt.Fprintf(w, "%s %s\n", tag, b)
		return
	}
	fmt.Fprintf(w, "%s\n", b)
}

// setupAll sets the workload up setupRepeats times from fresh inputs,
// keeping the last instance, and returns the set-up durations.
func setupAll(r *run, s seams, repeats int) (*instance, []float64, error) {
	var times []float64
	for i := 0; i < repeats; i++ {
		runtime.GC()
		t0 := time.Now()
		r.in = generate(r.seed, r.sz)
		it, err := r.w.setup(r, s)
		times = append(times, time.Since(t0).Seconds())
		if err != nil {
			if it != nil {
				_ = it.Close()
			}
			return nil, nil, fmt.Errorf("setup %s: %w", r.w.name, err)
		}
		if i < repeats-1 {
			if err := it.Close(); err != nil {
				return nil, nil, err
			}
			continue
		}
		r.orc = newOracle(r.in)
		return it, times, nil
	}
	return nil, nil, fmt.Errorf("no setups")
}

// runPlain is the untraced end-to-end pass.
func runPlain(r *run, window time.Duration) (*result, map[string]any, error) {
	it, setups, err := setupAll(r, seams{}, setupRepeats)
	if err != nil {
		return nil, nil, err
	}
	defer it.Close()
	runtime.GC()
	hs := startHeapSampler(10 * time.Millisecond)
	lat := newLatencies()
	outs, elapsed, err := closedLoop(it.addr, client.Dialer{}, it.mixes, window, lat, nil)
	heap := hs.Stop()
	if err != nil {
		return nil, nil, err
	}
	checkErr := r.w.check(r, it, outs)
	res := &result{Correct: checkErr == nil, Attempted: len(outs), Failed: lat.failures(), Metrics: map[string]metric{}}
	cls := r.w.primary
	res.Metrics["setup_s"] = metric{median(setups), "s"}
	res.Metrics["cpu_p50_ms"] = metric{slicedP50(cls, outs, window, cpuMS), "ms"}
	res.Metrics["cpu_tail_ms"] = metric{classQuantile(cls, outs, r.w.tail, cpuMS), "ms"}
	res.Metrics["heap_peak_mb"] = metric{heap, "MiB"}
	rec := record(r, it, setups)
	rec["classes"] = classMetrics(lat, elapsed)
	rec["wall"] = map[string]float64{
		"op_p50_ms":  slicedP50(cls, outs, window, wallMS),
		"op_tail_ms": classQuantile(cls, outs, r.w.tail, wallMS),
		"ops_per_s":  slicedRate(cls, outs, window),
	}
	rec["error_rate"] = float64(res.Failed) / float64(max(res.Attempted, 1))
	if checkErr != nil {
		rec["check_error"] = checkErr.Error()
		fmt.Fprintln(os.Stderr, "perfbench: CHECK FAILED:", checkErr)
	}
	return res, rec, nil
}

// subWindowCount is how many equal slices of the window the medians and
// the throughput are taken over; the run reports their medians, so a few
// seconds of interference from outside the benchmark move neither.
const subWindowCount = 5

func cpuMS(o outcome) float64  { return ms(o.cpu) }
func wallMS(o outcome) float64 { return ms(o.end - o.start) }

// windowSlices splits the successful outcomes of the given classes into
// subWindowCount equal slices of the window by the time each ended.
func windowSlices(classes []opClass, outs []outcome, window time.Duration) [][]outcome {
	slice := window / subWindowCount
	parts := make([][]outcome, subWindowCount)
	for _, o := range outs {
		if o.err != nil || !slices.Contains(classes, o.op.cls) {
			continue
		}
		i := min(int(o.end/slice), subWindowCount-1)
		parts[i] = append(parts[i], o)
	}
	return parts
}

// classQuantile is the geometric mean over the classes of each class's
// q-quantile of f over the successful outcomes, so every class weighs the
// same whatever its share of the statements or its speed.
func classQuantile(classes []opClass, outs []outcome, q float64, f func(outcome) float64) float64 {
	var qs []float64
	for _, c := range classes {
		var xs []float64
		for _, o := range outs {
			if o.err == nil && o.op.cls == c {
				xs = append(xs, f(o))
			}
		}
		if len(xs) > 0 {
			sort.Float64s(xs)
			qs = append(qs, percentile(xs, q))
		}
	}
	return geomean(qs)
}

// slicedP50 is the median over the window's slices of each slice's
// classQuantile at 0.5.
func slicedP50(classes []opClass, outs []outcome, window time.Duration, f func(outcome) float64) float64 {
	var p50s []float64
	for _, part := range windowSlices(classes, outs, window) {
		if len(part) > 0 {
			p50s = append(p50s, classQuantile(classes, part, 0.5, f))
		}
	}
	return median(p50s)
}

// slicedRate is the median over the window's slices of the statements of
// the classes completed per second. A closed-loop session is never idle, so
// a slice's throughput is the sum over sessions of statements completed
// divided by the time spent on them: the same number as statements per
// second of wall time, without rounding to whole statements per slice.
func slicedRate(classes []opClass, outs []outcome, window time.Duration) float64 {
	var rates []float64
	for _, part := range windowSlices(classes, outs, window) {
		n := map[int]int{}
		busy := map[int]time.Duration{}
		for _, o := range part {
			n[o.session]++
			busy[o.session] += o.end - o.start
		}
		var r float64
		for s := range n {
			r += float64(n[s]) / busy[s].Seconds()
		}
		if len(n) > 0 {
			rates = append(rates, r)
		}
	}
	return median(rates)
}

// classMetrics are the per-operation-class latency figures of a window,
// named as in the workload doc (psi_p50_ms, insert_rows_per_s, ...).
func classMetrics(lat *latencies, elapsed time.Duration) map[string]any {
	out := map[string]any{}
	add := func(prefix string, tail float64, tailName string, c opClass) {
		xs := lat.sorted(c)
		if len(xs) == 0 {
			return
		}
		out[prefix+"_n"] = len(xs)
		out[prefix+"_p50_ms"] = percentile(xs, 0.5)
		out[prefix+"_"+tailName+"_ms"] = percentile(xs, tail)
	}
	add("psi", 0.99, "p99", clsPsi)
	add("omega", 0.99, "p99", clsOmega)
	add("join", 0.90, "p90", clsJoin)
	add("insert", 0.99, "p99", clsInsert)
	if n := len(lat.sorted(clsPsi, clsOmega)); n > 0 {
		out["lookup_qps"] = float64(n) / elapsed.Seconds()
	}
	if n := len(lat.sorted(clsInsert)); n > 0 {
		out["insert_rows_per_s"] = float64(n) / elapsed.Seconds()
	}
	return out
}

// record is the run record: what the numbers were measured on.
func record(r *run, it *instance, setups []float64) map[string]any {
	rec := map[string]any{"sizes": r.sz, "setup_s_samples": setups}
	for k, v := range it.record {
		rec[k] = v
	}
	return rec
}

// calibrate times a fixed single-threaded CPU task (edit distances between
// constant strings) in ns per call. The run records it before and after
// the measurement, so a number can be read against how fast the machine
// was at the time; it feeds no metric.
func calibrate() float64 {
	const n = 200000
	t0 := time.Now()
	for i := 0; i < n; i++ {
		sink += phonetic.EditDistance("vaameedir", "vaamedhir")
	}
	return float64(time.Since(t0)) / n
}

// machine fingerprints the host and the source tree measured.
func machine() map[string]any {
	m := map[string]any{
		"cpus":       runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"goos":       runtime.GOOS + "/" + runtime.GOARCH,
	}
	if head, err := os.ReadFile(".git/HEAD"); err == nil {
		ref := strings.TrimSpace(strings.TrimPrefix(string(head), "ref: "))
		if b, err := os.ReadFile(filepath.Join(".git", ref)); err == nil {
			ref = strings.TrimSpace(string(b))
		}
		m["commit"] = ref
	} else {
		m["commit"] = "unknown"
	}
	m["source_sha256"] = sourceDigest(".")
	return m
}

// sourceDigest hashes every Go source and module file under root, so a run
// names the exact code it measured even outside a git checkout.
func sourceDigest(root string) string {
	var files []string
	_ = filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && p != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(p, ".go") || d.Name() == "go.mod") {
			files = append(files, p)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		fmt.Fprintf(h, "%s %d\n", filepath.ToSlash(f), len(b))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
