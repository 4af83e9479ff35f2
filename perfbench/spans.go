package main

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"net"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/mural-db/mural/internal/storage"
	"github.com/mural-db/mural/internal/wire"
)

// span is one timed interval of the traced run. Spans of one statement
// share Op; Parent links a span to the one that caused it.
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Op     uint64 `json:"op,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Bytes  int    `json:"bytes,omitempty"`
}

// tracer keeps spans in memory until the run ends. It is switched on and
// off as a whole; while off, the seam wrappers cost one atomic load.
type tracer struct {
	t0   time.Time
	on   atomic.Bool
	next atomic.Uint64
	// cur is the operation in flight during the single-session replay, so
	// seam spans raised on engine goroutines can name it; 0 when unknown.
	cur   atomic.Uint64
	curID atomic.Uint64 // span ID of cur's client-call span

	mu    sync.Mutex
	spans []span
	frags [][]byte
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

// begin opens a span; end records it. Returns 0 (a no-op token) when off.
func (t *tracer) begin() int64 {
	if t == nil || !t.on.Load() {
		return -1
	}
	return t.now()
}

func (t *tracer) end(name string, start int64, bytes int) {
	if start < 0 {
		return
	}
	t.add(span{Name: name, Start: start, End: t.now(), Op: t.cur.Load(), Parent: t.curID.Load(), Bytes: bytes})
}

func (t *tracer) add(s span) uint64 {
	s.ID = t.next.Add(1)
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
	return s.ID
}

// timed runs fn inside a span named name, attributed to the current op.
func (t *tracer) timed(name string, fn func()) time.Duration {
	t0 := time.Now()
	s := t.begin()
	fn()
	t.end(name, s, 0)
	return time.Since(t0)
}

// sum totals the durations and bytes of the spans with the given name
// recorded since index from.
func (t *tracer) sum(name string, from int) (n int, total time.Duration, bytes int) {
	return t.sumRange(name, from, -1)
}

// sumRange is sum over the spans recorded at indexes [from, to); to < 0
// means up to now.
func (t *tracer) sumRange(name string, from, to int) (n int, total time.Duration, bytes int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if to < 0 || to > len(t.spans) {
		to = len(t.spans)
	}
	for _, s := range t.spans[from:to] {
		if s.Name == name {
			n++
			total += time.Duration(s.End - s.Start)
			bytes += s.Bytes
		}
	}
	return n, total, bytes
}

func (t *tracer) mark() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// write stores every span as one JSON line.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			_ = f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		_ = f.Close()
		return err
	}
	return f.Close()
}

// children returns the spans recorded since index from whose parent is id.
func (t *tracer) children(id uint64, from int) []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []span
	for _, s := range t.spans[from:] {
		if s.Parent == id {
			out = append(out, s)
		}
	}
	return out
}

// covered is the length of the union of the spans' intervals clipped to
// [lo, hi].
func covered(spans []span, lo, hi int64) time.Duration {
	iv := make([][2]int64, 0, len(spans))
	for _, s := range spans {
		a, b := max(s.Start, lo), min(s.End, hi)
		if a < b {
			iv = append(iv, [2]int64{a, b})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, end int64 = 0, lo
	for _, x := range iv {
		if x[1] <= end {
			continue
		}
		total += x[1] - max(x[0], end)
		end = x[1]
	}
	return time.Duration(total)
}

// QueryStart, QueryEnd and OperatorSpan make the tracer an exec.Tracer for
// Config.Tracer: every statement the engine finishes becomes an
// "engine.statement" span, a child of the client call in flight.
func (t *tracer) QueryStart(string) {}

func (t *tracer) QueryEnd(_ string, elapsed time.Duration, _ int64, _ error) {
	if !t.on.Load() {
		return
	}
	end := t.now()
	t.add(span{Name: "engine.statement", Start: end - int64(elapsed), End: end, Op: t.cur.Load(), Parent: t.curID.Load()})
}

func (t *tracer) OperatorSpan(string, int64, int64, time.Duration) {}

// seams builds the wrap-seam hooks that record spans into t.
func (t *tracer) seams() seams {
	return seams{
		tracer: t,
		disk:   func(_ string, d storage.Disk) storage.Disk { return &tracedDisk{Disk: d, t: t} },
		wal:    func(f storage.LogFile) storage.LogFile { return &tracedLog{LogFile: f, t: t} },
		shard:  func(c net.Conn) net.Conn { return t.dialed(c, "shard") },
		conn:   func(c net.Conn) net.Conn { return t.dialed(c, "wire") },
	}
}

// tracedDisk times page I/O through Config.DiskWrap.
type tracedDisk struct {
	storage.Disk
	t *tracer
}

func (d *tracedDisk) ReadPage(id storage.PageID, buf []byte) error {
	s := d.t.begin()
	err := d.Disk.ReadPage(id, buf)
	d.t.end("storage.read_page", s, len(buf))
	return err
}

func (d *tracedDisk) WritePage(id storage.PageID, buf []byte) error {
	s := d.t.begin()
	err := d.Disk.WritePage(id, buf)
	d.t.end("storage.write_page", s, len(buf))
	return err
}

func (d *tracedDisk) Sync() error {
	s := d.t.begin()
	err := d.Disk.Sync()
	d.t.end("storage.data_sync", s, 0)
	return err
}

// tracedLog times the WAL device through Config.WALWrap.
type tracedLog struct {
	storage.LogFile
	t *tracer
}

func (l *tracedLog) WriteAt(p []byte, off int64) (int, error) {
	s := l.t.begin()
	n, err := l.LogFile.WriteAt(p, off)
	l.t.end("storage.wal_write", s, n)
	return n, err
}

func (l *tracedLog) Sync() error {
	s := l.t.begin()
	err := l.LogFile.Sync()
	l.t.end("storage.wal_fsync", s, 0)
	return err
}

// dialed wraps a freshly dialed socket, recording the dial as a span.
func (t *tracer) dialed(c net.Conn, prefix string) net.Conn {
	t.end(prefix+".dial", t.begin(), 0)
	return &tracedConn{Conn: c, t: t, prefix: prefix}
}

// capture keeps the first plan fragments a coordinator ships (one frame
// per socket write: the client flushes header and payload together), so
// the codec can be timed on real fragments.
func (t *tracer) capture(p []byte) {
	if len(p) < 5 || wire.MsgType(p[4]) != wire.MsgFragment || int(binary.BigEndian.Uint32(p[:4])) != len(p)-5 {
		return
	}
	_, frag, err := wire.DecodeFragmentPayload(p[5:])
	if err != nil {
		return
	}
	t.mu.Lock()
	if len(t.frags) < 64 {
		t.frags = append(t.frags, append([]byte(nil), frag...))
	}
	t.mu.Unlock()
}

// tracedConn times socket reads and writes through client.Dialer.Wrap
// (prefix "wire") and Config.ShardWrap (prefix "shard").
type tracedConn struct {
	net.Conn
	t      *tracer
	prefix string
}

func (c *tracedConn) Read(p []byte) (int, error) {
	s := c.t.begin()
	n, err := c.Conn.Read(p)
	c.t.end(c.prefix+".read", s, n)
	return n, err
}

func (c *tracedConn) Write(p []byte) (int, error) {
	s := c.t.begin()
	n, err := c.Conn.Write(p)
	c.t.end(c.prefix+".write", s, n)
	if c.prefix == "shard" && s >= 0 {
		c.t.capture(p[:n])
	}
	return n, err
}
