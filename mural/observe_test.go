package mural

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/mural-db/mural/internal/obs"
	"github.com/mural-db/mural/internal/wordnet"
)

// planLine returns the first plan line whose operator matches op.
func planLine(plan, op string) string {
	for _, line := range strings.Split(plan, "\n") {
		if strings.Contains(line, op) {
			return line
		}
	}
	return ""
}

var actualRE = regexp.MustCompile(`\(actual rows=(\d+) loops=(\d+) time=([^)]+)\)`)

var gatherWorkersRE = regexp.MustCompile(`Gather workers=(\d+)`)

// actualOf parses the "(actual rows=N loops=L time=T)" annotation.
func actualOf(t *testing.T, line string) (rows, loops int64) {
	t.Helper()
	m := actualRE.FindStringSubmatch(line)
	if m == nil {
		t.Fatalf("no actual annotation in %q", line)
	}
	rows, _ = strconv.ParseInt(m[1], 10, 64)
	loops, _ = strconv.ParseInt(m[2], 10, 64)
	return rows, loops
}

func TestExplainAnalyzeSeqScan(t *testing.T) {
	e := memEngine(t)
	loadBooks(t, e)
	res := e.MustExec(`EXPLAIN ANALYZE SELECT id, title FROM book WHERE price < 10`)
	scan := planLine(res.Plan, "SeqScan")
	if scan == "" {
		t.Fatalf("no SeqScan in plan:\n%s", res.Plan)
	}
	rows, loops := actualOf(t, scan)
	if rows != 6 || loops != 1 {
		t.Errorf("SeqScan actual rows=%d loops=%d, want 6/1:\n%s", rows, loops, res.Plan)
	}
	filter := planLine(res.Plan, "Filter")
	if filter == "" {
		t.Fatalf("no Filter in plan:\n%s", res.Plan)
	}
	if rows, _ := actualOf(t, filter); rows != 3 {
		t.Errorf("Filter actual rows=%d, want 3:\n%s", rows, res.Plan)
	}
	if res.Elapsed <= 0 {
		t.Error("EXPLAIN ANALYZE must record elapsed time")
	}
	if !strings.Contains(res.Plan, "Actual:") {
		t.Errorf("summary line missing:\n%s", res.Plan)
	}
	// The rows of the result are the plan text itself.
	if len(res.Rows) == 0 || res.Cols[0] != "plan" {
		t.Errorf("EXPLAIN must return plan rows, got cols=%v rows=%d", res.Cols, len(res.Rows))
	}
}

// TestExplainAnalyzeLexEqual checks the Ψ (LexEQUAL) operator under EXPLAIN
// ANALYZE through the full SQL path. (The M-Tree index-scan variant is
// pinned at the exec layer — see TestMTreeScanAnalyze — because the cost
// model only picks the metric index on catalogs far larger than a unit test
// should build.)
func TestExplainAnalyzeLexEqual(t *testing.T) {
	e := memEngine(t)
	loadBooks(t, e)
	res := e.MustExec(`EXPLAIN ANALYZE SELECT id FROM book
		WHERE author LEXEQUAL 'Nehru' THRESHOLD 2 IN english, hindi, tamil`)
	line := planLine(res.Plan, "Ψ")
	if line == "" {
		t.Fatalf("no Ψ operator in plan:\n%s", res.Plan)
	}
	rows, loops := actualOf(t, line)
	// A Ψ filter under a Gather runs once per worker (loops = workers);
	// without a Gather it runs once.
	wantLoops := int64(1)
	if m := gatherWorkersRE.FindStringSubmatch(res.Plan); m != nil {
		wantLoops, _ = strconv.ParseInt(m[1], 10, 64)
	}
	// Figure 2: Nehru matches its Hindi and Tamil spellings too.
	if rows != 3 || loops != wantLoops {
		t.Errorf("Ψ operator actual rows=%d loops=%d, want 3/%d:\n%s", rows, loops, wantLoops, res.Plan)
	}
	if res.Stats.PsiEvaluations != 6 {
		t.Errorf("psi_evals = %d, want 6 (one per scanned row)", res.Stats.PsiEvaluations)
	}
}

func TestExplainAnalyzeOmega(t *testing.T) {
	net := wordnet.Generate(wordnet.Config{Synsets: 3000, Seed: 1})
	e, err := Open(Config{WordNet: net})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	e.MustExec(`CREATE TABLE item (iid INT, cat UNITEXT)`)
	e.MustExec(`INSERT INTO item VALUES
		(1, unitext('historiography', english)),
		(2, unitext('physics', english))`)
	res := e.MustExec(`EXPLAIN ANALYZE SELECT iid FROM item WHERE cat SEMEQUAL 'history'`)
	if res.Stats.OmegaProbes == 0 {
		t.Errorf("Ω probes not recorded:\n%s", res.Plan)
	}
	if !strings.Contains(res.Plan, "actual rows=") {
		t.Errorf("no actuals in Ω plan:\n%s", res.Plan)
	}
}

// TestExplainAnalyzeJoinLoops checks that inner-side rescans of a
// nested-loops join show up as loops on the Materialize node.
func TestExplainAnalyzeJoinLoops(t *testing.T) {
	e := memEngine(t)
	e.MustExec(`CREATE TABLE l (a INT)`)
	e.MustExec(`CREATE TABLE r (b INT)`)
	e.MustExec(`INSERT INTO l VALUES (1), (2), (3)`)
	e.MustExec(`INSERT INTO r VALUES (10), (20)`)
	res := e.MustExec(`EXPLAIN ANALYZE SELECT a, b FROM l, r WHERE a < b`)
	mat := planLine(res.Plan, "Materialize")
	if mat == "" {
		t.Skipf("no Materialize in plan:\n%s", res.Plan)
	}
	rows, loops := actualOf(t, mat)
	// Three outer rows: one initial pass plus two rewinds.
	if loops != 3 {
		t.Errorf("Materialize loops=%d, want 3:\n%s", loops, res.Plan)
	}
	if rows != 6 {
		t.Errorf("Materialize total rows=%d, want 6 (2 rows x 3 loops):\n%s", rows, res.Plan)
	}
}

// querySpan is the root span of one exported statement as the JSONL trace
// sink writes it.
type querySpan struct {
	TraceID     string `json:"trace_id"`
	Kind        string `json:"kind"`
	Name        string `json:"name"`
	StartNs     int64  `json:"start_ns"`
	DurNs       int64  `json:"dur_ns"`
	Rows        int64  `json:"rows"`
	PeakMem     int64  `json:"peak_mem_bytes"`
	CacheHits   int64  `json:"cache_hits"`
	CacheMisses int64  `json:"cache_misses"`
	Err         string `json:"err"`
}

// querySpans decodes every root query span in JSONL trace output; a line
// that is not valid JSON fails the test.
func querySpans(t *testing.T, data string) []querySpan {
	t.Helper()
	var out []querySpan
	for _, line := range strings.Split(strings.TrimSpace(data), "\n") {
		var sp querySpan
		if err := json.Unmarshal([]byte(line), &sp); err != nil {
			t.Fatalf("trace line %q: %v", line, err)
		}
		if sp.Kind == "query" {
			out = append(out, sp)
		}
	}
	return out
}

// A statement over SlowQueryThreshold exports its root query span to the
// trace sink even when the sampler is off.
func TestSlowStatementExported(t *testing.T) {
	var buf bytes.Buffer
	e, err := Open(Config{SlowQueryThreshold: time.Nanosecond, TraceSink: &buf})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	e.MustExec(`CREATE TABLE tt (x INT)`)
	e.MustExec(`INSERT INTO tt VALUES (1), (2)`)
	e.MustExec(`SELECT * FROM tt`)
	spans := querySpans(t, buf.String())
	if len(spans) < 3 {
		t.Fatalf("slow statement spans = %d, want >= 3:\n%s", len(spans), buf.String())
	}
	rec := spans[len(spans)-1]
	if rec.Name != `SELECT * FROM tt` || rec.Rows != 2 || rec.DurNs <= 0 || rec.StartNs <= 0 || rec.TraceID == "" {
		t.Errorf("bad slow statement span: %+v", rec)
	}
	// Unsampled: the root span travels alone.
	if n := strings.Count(buf.String(), "\n"); n != len(spans) {
		t.Errorf("exported %d lines for %d slow statements, want root spans only:\n%s", n, len(spans), buf.String())
	}
}

// recordingTracer captures the Tracer callbacks.
type recordingTracer struct {
	mu   sync.Mutex
	ends []string
}

func (r *recordingTracer) QueryEnd(q string, elapsed time.Duration, rows int64, err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.ends = append(r.ends, fmt.Sprintf("%s rows=%d err=%v", q, rows, err))
}

// count reports how many QueryEnd callbacks named statement q.
func (r *recordingTracer) count(q string) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := 0
	for _, end := range r.ends {
		if strings.HasPrefix(end, q+" rows=") {
			n++
		}
	}
	return n
}

func TestTracerHooks(t *testing.T) {
	tr := &recordingTracer{}
	var sink bytes.Buffer
	e, err := Open(Config{Tracer: tr, TraceSink: &sink, TraceSampleRate: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	e.MustExec(`CREATE TABLE tt (x INT)`)
	e.MustExec(`INSERT INTO tt VALUES (1)`)
	res := e.MustExec(`EXPLAIN ANALYZE SELECT * FROM tt WHERE x = 1`)
	if len(tr.ends) != 3 {
		t.Fatalf("ends=%d, want 3", len(tr.ends))
	}
	if !strings.HasPrefix(tr.ends[0], `CREATE TABLE tt (x INT) `) {
		t.Errorf("first end = %q", tr.ends[0])
	}
	// EXPLAIN ANALYZE reports every executed operator in its own output.
	if line := planLine(res.Plan, "SeqScan"); line == "" || !strings.Contains(line, "actual rows=") {
		t.Errorf("EXPLAIN ANALYZE missing SeqScan actuals:\n%s", res.Plan)
	}
	// A traced statement exports one span per executed operator.
	e.MustExec(`SELECT * FROM tt WHERE x = 1`)
	found := false
	for _, sp := range decodeSpans(t, sink.String()) {
		if sp["kind"] == "operator" && strings.HasPrefix(sp["name"].(string), "SeqScan") {
			found = true
		}
	}
	if !found {
		t.Errorf("trace missing a SeqScan operator span:\n%s", sink.String())
	}
}

// TestEveryStatementObservedOnce drives every way a statement can end,
// through Exec and through Query, and checks each is observed exactly once:
// one Tracer.QueryEnd, one mural_engine_queries_total tick and one call in
// its statement aggregate.
func TestEveryStatementObservedOnce(t *testing.T) {
	tr := &recordingTracer{}
	e, err := Open(Config{Tracer: tr, MaxConcurrentQueries: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	e.MustExec(`CREATE TABLE ob (x INT)`)
	e.MustExec(`INSERT INTO ob VALUES (1), (2), (3)`)
	if err := e.RegisterOperator("bomb", func(a, b Value) (bool, error) {
		return false, errors.New("boom")
	}); err != nil {
		t.Fatal(err)
	}
	canceled, cancel := context.WithCancel(context.Background())
	cancel()

	paths := map[string]func(ctx context.Context, q string) error{
		"Exec": func(ctx context.Context, q string) error {
			_, err := e.ExecContext(ctx, q)
			return err
		},
		"Query": func(ctx context.Context, q string) error {
			rows, err := e.QueryContext(ctx, q)
			if err != nil {
				return err
			}
			for {
				_, ok, err := rows.Next()
				if err != nil {
					return errors.Join(err, rows.Close())
				}
				if !ok {
					return rows.Close()
				}
			}
		},
	}
	cases := []struct {
		name, q string
		ctx     context.Context
		hold    bool // hold the only admission slot with an open cursor
		wantErr bool
	}{
		{name: "parse error", q: `SELEC x FROM ob`, wantErr: true},
		{name: "plan error", q: `SELECT * FROM nosuch`, wantErr: true},
		{name: "admission rejection", q: `SELECT x FROM ob WHERE x = 1`, hold: true, wantErr: true},
		{name: "run error", q: `SELECT x FROM ob WHERE x = 2`, ctx: canceled, wantErr: true},
		{name: "mid-stream error", q: `SELECT x FROM ob WHERE bomb(x, 1)`, wantErr: true},
		{name: "success", q: `SELECT x FROM ob WHERE x > 0`},
	}
	calls := func(q string) int64 {
		fp := obs.Fingerprint(q)
		for _, r := range e.Statements() {
			if r.Query == fp {
				return r.Calls
			}
		}
		return 0
	}
	for _, path := range []string{"Exec", "Query"} {
		for _, c := range cases {
			ctx := c.ctx
			if ctx == nil {
				ctx = context.Background()
			}
			var held *Rows
			if c.hold {
				if held, err = e.Query(`SELECT x FROM ob`); err != nil {
					t.Fatal(err)
				}
			}
			ends, queries, called := tr.count(c.q), mQueries.Value(), calls(c.q)
			err := paths[path](ctx, c.q)
			if (err != nil) != c.wantErr {
				t.Errorf("%s %s: err = %v, want error %v", path, c.name, err, c.wantErr)
			}
			if c.hold && !errors.Is(err, ErrAdmissionRejected) {
				t.Errorf("%s %s: err = %v, want ErrAdmissionRejected", path, c.name, err)
			}
			if d := tr.count(c.q) - ends; d != 1 {
				t.Errorf("%s %s: QueryEnd fired %d times, want 1", path, c.name, d)
			}
			if d := mQueries.Value() - queries; d != 1 {
				t.Errorf("%s %s: mural_engine_queries_total advanced by %d, want 1", path, c.name, d)
			}
			if d := calls(c.q) - called; d != 1 {
				t.Errorf("%s %s: statement calls advanced by %d, want 1", path, c.name, d)
			}
			if held != nil {
				if err := held.Close(); err != nil {
					t.Fatal(err)
				}
			}
		}
	}

	// A successful Exec and Query of one SELECT leave the same SHOW
	// STATEMENTS deltas (on a warm plan cache).
	const q = `SELECT x FROM ob WHERE x < 3`
	e.MustExec(q)
	row := func() Tuple { return showStmts(t, e)[obs.Fingerprint(q)] }
	delta := func(run func(context.Context, string) error) []int64 {
		before := row()
		if err := run(context.Background(), q); err != nil {
			t.Fatal(err)
		}
		after := row()
		var d []int64
		for _, col := range []int{1, 2, 3, 11, 12} { // calls, errors, rows, cache_hits, cache_misses
			d = append(d, after[col].Int()-before[col].Int())
		}
		return d
	}
	if ex, qu := delta(paths["Exec"]), delta(paths["Query"]); fmt.Sprint(ex) != fmt.Sprint(qu) {
		t.Errorf("SHOW STATEMENTS deltas differ: Exec %v, Query %v (calls, errors, rows, cache_hits, cache_misses)", ex, qu)
	}
}

// A statement a panic unwinds through (here a registered operator's) still
// ends once: its admission slot frees and it is observed as failed.
func TestPanickingStatementReleasesSlot(t *testing.T) {
	tr := &recordingTracer{}
	e, err := Open(Config{Tracer: tr, MaxConcurrentQueries: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	e.MustExec(`CREATE TABLE pn (x INT)`)
	e.MustExec(`INSERT INTO pn VALUES (1), (2)`)
	if err := e.RegisterOperator("explode", func(a, b Value) (bool, error) {
		panic("operator exploded")
	}); err != nil {
		t.Fatal(err)
	}
	const q = `SELECT x FROM pn WHERE explode(x, 1)`
	func() {
		defer func() {
			if recover() == nil {
				t.Error("Exec of a panicking operator did not panic")
			}
		}()
		_, _ = e.Exec(q)
	}()
	if n := tr.count(q); n != 1 {
		t.Errorf("QueryEnd fired %d times for the panicked statement, want 1", n)
	}
	// With MaxConcurrentQueries 1, a leaked slot rejects everything after.
	if _, err := e.Exec(`SELECT x FROM pn`); err != nil {
		t.Fatalf("statement after a panic: %v", err)
	}
}

// BenchmarkSelectNoStats guards the disabled-stats fast path: regular
// execution must not pay for EXPLAIN ANALYZE instrumentation.
func BenchmarkSelectNoStats(b *testing.B) {
	e := memEngine(b)
	e.MustExec(`CREATE TABLE bt (x INT, s TEXT)`)
	var vals []string
	for i := 0; i < 500; i++ {
		vals = append(vals, fmt.Sprintf("(%d, 's%d')", i, i))
	}
	e.MustExec(`INSERT INTO bt VALUES ` + strings.Join(vals, ","))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Exec(`SELECT count(*) FROM bt WHERE x < 250`); err != nil {
			b.Fatal(err)
		}
	}
}
