package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/mural-db/mural/internal/exec"
)

func TestFingerprint(t *testing.T) {
	cases := []struct{ in, want string }{
		{`SELECT * FROM names WHERE name LEXEQUAL 'Katrina'  THRESHOLD 2;`,
			`select * from names where name lexequal ? threshold ?`},
		{`select * from names where name lexequal 'O''Brien' threshold 3`,
			`select * from names where name lexequal ? threshold ?`},
		{`SELECT id FROM t WHERE x IN (1, 2, 3)`, `select id from t where x in (?)`},
		{`SELECT id FROM t WHERE x IN (1,2)`, `select id from t where x in (?)`},
		{`INSERT INTO t VALUES (1, 'a'), (2, 'b')`, `insert into t values (?), (?)`},
		{`SELECT 1.5e-3, 'x'`, `select ?, ?`},
		{`SELECT "Mixed" FROM t`, `select "Mixed" from t`},
		{"SELECT *\n\tFROM t  WHERE a=1", `select * from t where a=?`},
		{`SET workers = 4`, `set workers = ?`},
	}
	for _, c := range cases {
		if got := Fingerprint(c.in); got != c.want {
			t.Errorf("Fingerprint(%q) = %q, want %q", c.in, got, c.want)
		}
	}
	// Different literals, same fingerprint; different shape, different one.
	a := Fingerprint(`SELECT * FROM names WHERE name LEXEQUAL 'ann' THRESHOLD 1`)
	b := Fingerprint(`SELECT * FROM names WHERE name LEXEQUAL 'bob' THRESHOLD 3`)
	if a != b {
		t.Fatalf("literal variants should share a fingerprint: %q vs %q", a, b)
	}
	c := Fingerprint(`SELECT * FROM probe WHERE name LEXEQUAL 'ann' THRESHOLD 1`)
	if a == c {
		t.Fatalf("different tables must not share a fingerprint: %q", a)
	}
}

func TestStmtStatsAggregation(t *testing.T) {
	s := NewStmtStats(64)
	fp := "select * from t where x = ?"
	durs := []time.Duration{time.Millisecond, 2 * time.Millisecond, 10 * time.Millisecond}
	for i, d := range durs {
		s.Record(fp, Observation{
			DurNs: int64(d), Rows: int64(i), Err: i == 2,
			PeakMem: int64(1000 * (i + 1)), CacheHits: 2, CacheMisses: 1,
		})
	}
	rows := s.Snapshot()
	if len(rows) != 1 {
		t.Fatalf("want 1 row, got %d", len(rows))
	}
	r := rows[0]
	if r.Query != fp || r.Calls != 3 || r.Errors != 1 || r.Rows != 3 {
		t.Fatalf("bad aggregate: %+v", r)
	}
	if r.MinNs != int64(time.Millisecond) || r.MaxNs != int64(10*time.Millisecond) {
		t.Fatalf("bad min/max: %+v", r)
	}
	if r.TotalNs != int64(13*time.Millisecond) {
		t.Fatalf("bad total: %+v", r)
	}
	if r.PeakMem != 3000 || r.CacheHits != 6 || r.CacheMisses != 3 {
		t.Fatalf("bad peak/cache: %+v", r)
	}
	// Percentiles come from log2 buckets clamped to [min, max]: p50 must be
	// within a 2x factor of the true median (2ms), p99 equals the max.
	if r.P50Ns < int64(time.Millisecond) || r.P50Ns > int64(4*time.Millisecond) {
		t.Fatalf("p50 out of range: %d", r.P50Ns)
	}
	if r.P99Ns != r.MaxNs {
		t.Fatalf("p99 should clamp to max: %d vs %d", r.P99Ns, r.MaxNs)
	}
}

func TestStmtStatsBounded(t *testing.T) {
	s := NewStmtStats(16)
	for i := 0; i < 100; i++ {
		s.Record(Fingerprint("select "+strings.Repeat("x", i%50+1)), Observation{DurNs: 1})
	}
	if n := s.Len(); n > 16 {
		t.Fatalf("store exceeded bound: %d", n)
	}
	s.Reset()
	if n := s.Len(); n != 0 {
		t.Fatalf("reset left %d entries", n)
	}
}

func TestStmtStatsConcurrent(t *testing.T) {
	s := NewStmtStats(32)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				s.Record("q", Observation{DurNs: int64(i + 1), Rows: 1})
			}
		}(g)
	}
	wg.Wait()
	rows := s.Snapshot()
	if len(rows) != 1 || rows[0].Calls != 4000 || rows[0].Rows != 4000 {
		t.Fatalf("lost updates: %+v", rows)
	}
}

func TestFeedbackEstablishAndGeneration(t *testing.T) {
	f := NewFeedback(64, 2)
	if _, ok := f.Observed("psi", "names", 3); ok {
		t.Fatal("empty sketch should not report")
	}
	g0 := f.Generation()
	f.Observe("psi", "names", 3, 0.02)
	if _, ok := f.Observed("psi", "names", 3); ok {
		t.Fatal("one observation is below MinObs=2")
	}
	if f.Generation() != g0 {
		t.Fatal("generation must not bump before establishment")
	}
	f.Observe("psi", "names", 3, 0.04)
	sel, ok := f.Observed("psi", "names", 3)
	if !ok || sel < 0.029 || sel > 0.031 {
		t.Fatalf("want mean 0.03, got %v %v", sel, ok)
	}
	g1 := f.Generation()
	if g1 == g0 {
		t.Fatal("establishment must bump the generation")
	}
	// Small drift: no bump. 3x drift: bump.
	f.Observe("psi", "names", 3, 0.03)
	if f.Generation() != g1 {
		t.Fatal("stable mean must not bump the generation")
	}
	for i := 0; i < 20; i++ {
		f.Observe("psi", "names", 3, 0.5)
	}
	if f.Generation() == g1 {
		t.Fatal("large drift must bump the generation")
	}
	// Bands are independent.
	if _, ok := f.Observed("psi", "names", 0); ok {
		t.Fatal("band 0 must be independent of band 3")
	}
	gp := f.Generation()
	f.Purge()
	if f.Len() != 0 || f.Generation() == gp {
		t.Fatal("purge must clear cells and bump the generation")
	}
}

func TestFeedbackBoundedAndClamped(t *testing.T) {
	f := NewFeedback(16, 1)
	for i := 0; i < 100; i++ {
		f.Observe("psi", strings.Repeat("t", i%40+1), i, float64(i))
	}
	if f.Len() > 16 {
		t.Fatalf("sketch exceeded bound: %d", f.Len())
	}
	f.Observe("psi", "clamp", 1, 7.5)
	if sel, ok := f.Observed("psi", "clamp", 1); !ok || sel != 1 {
		t.Fatalf("selectivity must clamp to 1, got %v %v", sel, ok)
	}
}

func TestFeedbackConcurrent(t *testing.T) {
	f := NewFeedback(64, 1)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				f.Observe("psi", "names", i%3, 0.1)
				f.Observed("psi", "names", i%3)
			}
		}()
	}
	wg.Wait()
	if sel, ok := f.Observed("psi", "names", 0); !ok || sel < 0.099 || sel > 0.101 {
		t.Fatalf("want 0.1, got %v %v", sel, ok)
	}
}

// rootName carries a control character: statement text is arbitrary
// bytes, and the export must stay valid JSON.
const rootName = "select '\x01\"'"

func spanTree(traceID uint64) []exec.Span {
	return []exec.Span{
		{TraceID: traceID, SpanID: 1, ParentID: 0, Kind: "query", Name: rootName, StartNs: 1000, DurNs: 5000, Rows: 1,
			PeakMem: 4096, CacheHits: 2, CacheMisses: 1, Err: "boom\n"},
		{TraceID: traceID, SpanID: 2, ParentID: 1, Kind: "plan", Name: "parse+plan", StartNs: 1000, DurNs: 2000},
		{TraceID: traceID, SpanID: 3, ParentID: 1, Kind: "operator", Name: "SeqScan t", StartNs: 3000, DurNs: 2500, Rows: 1, Loops: 1},
	}
}

func TestTraceWriterJSONL(t *testing.T) {
	var buf bytes.Buffer
	w := NewTraceWriter(&buf, FormatJSONL, 1)
	if err := w.WriteSpans(spanTree(0xabcdef12345678)); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("want 3 lines, got %d: %q", len(lines), buf.String())
	}
	var rec map[string]any
	if err := json.Unmarshal([]byte(lines[2]), &rec); err != nil {
		t.Fatalf("line not JSON: %v", err)
	}
	if rec["trace_id"] != "00abcdef12345678" || rec["kind"] != "operator" || rec["parent_id"] != float64(1) {
		t.Fatalf("bad record: %v", rec)
	}
	if _, ok := rec["peak_mem_bytes"]; ok {
		t.Errorf("operator span carries statement outcome fields: %v", rec)
	}
	// The query root carries the statement's outcome.
	rec = nil
	if err := json.Unmarshal([]byte(lines[0]), &rec); err != nil {
		t.Fatalf("root line not JSON: %v\n%s", err, lines[0])
	}
	if rec["name"] != rootName || rec["peak_mem_bytes"] != float64(4096) || rec["cache_hits"] != float64(2) ||
		rec["cache_misses"] != float64(1) || rec["err"] != "boom\n" {
		t.Fatalf("bad root record: %v", rec)
	}
}

func TestTraceWriterChrome(t *testing.T) {
	var buf bytes.Buffer
	w := NewTraceWriter(&buf, FormatChrome, 1)
	if err := w.WriteSpans(spanTree(7)); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.HasPrefix(out, "[\n") {
		t.Fatalf("chrome stream must open an array: %q", out)
	}
	// Terminate the streamed array and check the whole thing parses.
	full := strings.TrimRight(strings.TrimSpace(out), ",") + "]"
	var events []map[string]any
	if err := json.Unmarshal([]byte(full), &events); err != nil {
		t.Fatalf("not valid trace-event JSON: %v\n%s", err, full)
	}
	if len(events) != 3 || events[0]["ph"] != "X" || events[2]["name"] != "SeqScan t" {
		t.Fatalf("bad events: %v", events)
	}
	if args := events[0]["args"].(map[string]any); events[0]["name"] != rootName || args["peak_mem_bytes"] != float64(4096) || args["err"] != "boom\n" {
		t.Fatalf("bad root event: %v", events[0])
	}
	if events[2]["dur"] != 2.5 { // 2500ns = 2.5µs
		t.Fatalf("dur not microseconds: %v", events[2]["dur"])
	}
}

func TestTraceWriterSampling(t *testing.T) {
	w := NewTraceWriter(&bytes.Buffer{}, FormatJSONL, 0.25)
	hits := 0
	for i := 0; i < 100; i++ {
		if w.Sampled(false) {
			hits++
		}
	}
	if hits != 25 {
		t.Fatalf("systematic 1-in-4 sampling should hit 25/100, got %d", hits)
	}
	if !w.Sampled(true) {
		t.Fatal("forced (client trace ID) must always sample")
	}
	off := NewTraceWriter(&bytes.Buffer{}, FormatJSONL, 0)
	for i := 0; i < 10; i++ {
		if off.Sampled(false) {
			t.Fatal("rate 0 must never sample untagged queries")
		}
	}
	if !off.Sampled(true) {
		t.Fatal("rate 0 must still sample tagged queries")
	}
	var nilW *TraceWriter
	if nilW.Sampled(true) {
		t.Fatal("nil writer never samples")
	}
}
