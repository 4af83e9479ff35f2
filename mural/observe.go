package mural

import (
	"context"
	"fmt"
	"time"

	"github.com/mural-db/mural/internal/exec"
	"github.com/mural-db/mural/internal/metrics"
	"github.com/mural-db/mural/internal/obs"
	"github.com/mural-db/mural/internal/plan"
	"github.com/mural-db/mural/internal/sql"
	"github.com/mural-db/mural/internal/types"
)

// Engine-level query counters and the latency histogram backing the
// /metrics endpoint.
var (
	mQueries     = metrics.Default.Counter("mural_engine_queries_total")
	mQueryErrors = metrics.Default.Counter("mural_engine_query_errors_total")
	mSlowQueries = metrics.Default.Counter("mural_engine_slow_queries_total")
	mQueryLatNs  = metrics.Default.Histogram("mural_engine_query_latency_ns", metrics.DurationBuckets)
)

// Default bounds for the observability stores (Config zero values).
const (
	defaultStmtStatsEntries = 256
	defaultFeedbackEntries  = 1024
)

// publishRecoveryStats exposes what crash recovery did at Open as gauges, so
// a scrape right after a restart shows whether (and how much) replay ran.
func publishRecoveryStats(rs RecoveryStats) {
	reg := metrics.Default
	reg.Gauge("mural_recovery_batches_replayed").Set(int64(rs.BatchesReplayed))
	reg.Gauge("mural_recovery_pages_applied").Set(int64(rs.PagesApplied))
	reg.Gauge("mural_recovery_orphans_removed").Set(int64(rs.OrphansRemoved))
	torn := int64(0)
	if rs.TornTail {
		torn = 1
	}
	reg.Gauge("mural_recovery_torn_tail").Set(torn)
	restored := int64(0)
	if rs.CatalogRestored {
		restored = 1
	}
	reg.Gauge("mural_recovery_catalog_restored").Set(restored)
}

// statement is one statement's lifecycle from arrival to its single exit.
// Every exit — parse error, plan error, admission rejection, Run error,
// mid-stream error, Close — goes through finish, which runs exactly once and
// is the statement's one observation point.
type statement struct {
	e     *Engine
	ctx   context.Context
	q     string
	start time.Time
	base  cacheTotals
	// fragment marks a plan fragment shipped by a coordinator: it is governed
	// like any statement but stays out of statement observation.
	fragment bool

	// Filled in as the statement progresses: the plan and when it was ready,
	// the governance state and its release, the collector armCollector chose
	// and the trace ID it assigned, and when execution began.
	node     *plan.Node
	planDur  time.Duration
	res      *exec.Resources
	release  func()
	es       *exec.ExecStats
	traceID  uint64
	sampled  bool
	runStart time.Time
	cursor   *exec.Cursor
	finished bool
}

func (e *Engine) newStatement(ctx context.Context, q string) *statement {
	if ctx == nil {
		ctx = context.Background()
	}
	return &statement{e: e, ctx: ctx, q: q, start: time.Now(), base: e.cacheBase()}
}

// govern claims the statement's admission slot and governance state; finish
// releases both.
func (s *statement) govern() error {
	release, err := s.e.admit()
	if err != nil {
		return err
	}
	res, stop := s.e.queryResources(s.ctx)
	s.res = res
	s.release = func() {
		stop()
		release()
	}
	return nil
}

// query plans a parsed SELECT through the plan cache and starts it.
func (s *statement) query(sel *sql.Select) (*Rows, error) {
	node, err := s.e.planSelectCached(s.q, sel)
	if err != nil {
		return nil, s.finish(0, false, err)
	}
	s.planDur = time.Since(s.start)
	return s.run(node)
}

// run admits and starts a planned SELECT or a shipped fragment; it is the
// one place a statement's plan reaches exec.Run. The returned Rows finishes
// the statement at Close; a failure here finishes it at once.
func (s *statement) run(node *plan.Node) (*Rows, error) {
	s.node = node
	if err := s.govern(); err != nil {
		return nil, s.finish(0, false, err)
	}
	if !s.fragment {
		s.es, s.traceID, s.sampled = s.e.armCollector(s.ctx, s.res, node)
	}
	s.runStart = time.Now()
	cur, err := exec.Run(s.e, node, s.es, s.res)
	if err != nil {
		return nil, s.finish(0, false, err)
	}
	s.cursor = cur
	return &Rows{Cols: cur.Cols, cursor: cur, stmt: s}, nil
}

// unwind, deferred by each entry point, ends a statement that a panic (a
// registered operator's, say) is unwinding past: its cursor closes, its
// admission slot frees and it is observed as failed. The panic continues.
func (s *statement) unwind() {
	p := recover()
	if p == nil {
		return
	}
	if !s.finished {
		if s.cursor != nil {
			_ = s.cursor.Close()
		}
		_ = s.finish(0, false, fmt.Errorf("mural: statement panicked: %v", p))
	}
	panic(p)
}

// finish ends the statement exactly once: it releases the governance state,
// counts a governed termination, folds selectivity feedback (only after a
// full error-free drain — a partial drain undercounts output rows) and
// observes the statement. It returns err so exits can finish and fail in
// one step.
func (s *statement) finish(rows int64, eof bool, err error) error {
	if s.finished {
		return err
	}
	s.finished = true
	peak := s.res.PeakBytes()
	if s.release != nil {
		s.release()
	}
	noteGovernedErr(err)
	if s.fragment {
		return err
	}
	if eof && err == nil {
		s.e.foldFeedback(s.node, s.es, s.res)
	}
	s.e.observe(s, rows, time.Since(s.start), err, peak)
	return err
}

// observe records one finished statement: metrics, the statement statistics
// store, the trace export and the tracer's QueryEnd hook. The statement
// exports when the sampler armed its collector, when it carries a client
// trace ID, or when it took at least Config.SlowQueryThreshold; an export
// without a collector is the root query span alone.
func (e *Engine) observe(s *statement, rows int64, elapsed time.Duration, err error, peakMem int64) {
	mQueries.Inc()
	mQueryLatNs.Observe(int64(elapsed))
	if err != nil {
		mQueryErrors.Inc()
	}
	now := e.cacheBase()
	hits, misses := now.hits-s.base.hits, now.misses-s.base.misses
	if e.stmts != nil {
		e.stmts.Record(obs.Fingerprint(s.q), obs.Observation{
			DurNs:       int64(elapsed),
			Rows:        rows,
			Err:         err != nil,
			PeakMem:     peakMem,
			CacheHits:   hits,
			CacheMisses: misses,
		})
	}
	slow := e.cfg.SlowQueryThreshold > 0 && elapsed >= e.cfg.SlowQueryThreshold
	if slow {
		mSlowQueries.Inc()
	}
	tagged, isTagged := obs.TraceIDFrom(s.ctx)
	if e.traces != nil && (s.sampled || isTagged || slow) {
		traceID := s.traceID
		switch {
		case traceID != 0:
		case isTagged:
			traceID = tagged
		default:
			traceID = e.newTraceID()
		}
		root := exec.Span{
			TraceID: traceID, SpanID: 1, Kind: "query", Name: s.q,
			StartNs: s.start.UnixNano(), DurNs: int64(elapsed), Rows: rows,
			PeakMem: peakMem, CacheHits: hits, CacheMisses: misses,
		}
		if err != nil {
			root.Err = err.Error()
		}
		spans := []exec.Span{root}
		if s.sampled {
			spans = append(spans, exec.Span{
				TraceID: traceID, SpanID: 2, ParentID: 1, Kind: "plan", Name: "parse+plan",
				StartNs: root.StartNs, DurNs: int64(s.planDur),
			})
			spans = append(spans, s.es.BuildSpans(s.node, traceID, s.runStart.UnixNano(), 3, 1)...)
		}
		_ = e.traces.WriteSpans(spans)
	}
	if tr := e.cfg.Tracer; tr != nil {
		tr.QueryEnd(s.q, elapsed, rows, err)
	}
}

// armCollector decides the per-statement collector for a SELECT: a timed
// collector when the statement's spans will export (client-tagged or hit by
// the sampler), a counts-only collector when a governed run should feed the
// selectivity sketch, nil otherwise — which keeps the ungoverned nil-stats
// execution path at zero overhead.
func (e *Engine) armCollector(ctx context.Context, res *exec.Resources, node *plan.Node) (*exec.ExecStats, uint64, bool) {
	traceID, forced := obs.TraceIDFrom(ctx)
	if e.traces.Sampled(forced) {
		if traceID == 0 {
			traceID = e.newTraceID()
		}
		return exec.NewExecStats(), traceID, true
	}
	if res != nil && e.fb != nil && e.wantFeedback(node) {
		return exec.NewCountStats(), 0, false
	}
	return nil, 0, false
}

// fbRefreshEvery paces the re-measurement of established feedback cells:
// once every cell a plan touches is established, only every N-th governed
// execution carries the counting iterators, so the steady state runs the
// plain path while drift is still caught within N executions.
const fbRefreshEvery = 16

// wantFeedback reports whether this governed execution should pay for a
// counts collector: always while any feedback-annotated operator in the plan
// has an unestablished cell (the observations that teach the planner), and
// on the periodic refresh tick afterwards.
func (e *Engine) wantFeedback(node *plan.Node) bool {
	sites, unestablished := false, false
	var walk func(n *plan.Node)
	walk = func(n *plan.Node) {
		if n == nil || unestablished {
			return
		}
		if n.FbKind != "" {
			sites = true
			if _, ok := e.fb.Observed(n.FbKind, n.FbTable, n.FbBand); !ok {
				unestablished = true
				return
			}
		}
		for _, c := range n.Children {
			walk(c)
		}
	}
	walk(node)
	switch {
	case !sites:
		return false
	case unestablished:
		return true
	default:
		return e.fbTick.Add(1)%fbRefreshEvery == 0
	}
}

// newTraceID synthesizes a nonzero trace ID for a sampled statement that
// arrived untagged: a process-local sequence in the high bits keeps IDs
// unique within the engine, a wall-clock suffix disambiguates across runs.
func (e *Engine) newTraceID() uint64 {
	id := e.traceSeq.Add(1)<<24 | uint64(time.Now().UnixNano())&0xffffff
	if id == 0 {
		id = 1
	}
	return id
}

// foldFeedback folds the collector's measured per-operator selectivities
// into the feedback sketch. Callers gate on full, error-free drains; this
// gates on governance (res != nil) so only admitted statement executions —
// the ones the paper's feedback loop is about — teach the planner.
func (e *Engine) foldFeedback(node *plan.Node, es *exec.ExecStats, res *exec.Resources) {
	if es == nil || res == nil || e.fb == nil {
		return
	}
	for _, o := range es.FeedbackObservations(node) {
		e.fb.Observe(o.Kind, o.Table, o.Band, o.Sel)
	}
}

// Statements snapshots the statement statistics store (nil when collection
// is disabled); the observability HTTP endpoint serves it as JSON.
func (e *Engine) Statements() []obs.StmtRow {
	if e.stmts == nil {
		return nil
	}
	return e.stmts.Snapshot()
}

// ResetStatements drops every statement aggregate.
func (e *Engine) ResetStatements() {
	if e.stmts != nil {
		e.stmts.Reset()
	}
}

// showStatements renders SHOW STATEMENTS: one row per resident fingerprint,
// most total time first. Latencies report in milliseconds for humans; the
// HTTP endpoint keeps raw nanoseconds.
func (e *Engine) showStatements() *Result {
	res := &Result{Cols: []string{
		"query", "calls", "errors", "rows", "total_ms", "mean_ms",
		"p50_ms", "p95_ms", "p99_ms", "max_ms", "peak_mem_bytes",
		"cache_hits", "cache_misses",
	}}
	if e.stmts == nil {
		return res
	}
	ms := func(ns int64) types.Value { return types.NewFloat(float64(ns) / 1e6) }
	for _, r := range e.stmts.Snapshot() {
		res.Rows = append(res.Rows, Tuple{
			types.NewText(r.Query),
			types.NewInt(r.Calls),
			types.NewInt(r.Errors),
			types.NewInt(r.Rows),
			ms(r.TotalNs),
			ms(r.MeanNs),
			ms(r.P50Ns),
			ms(r.P95Ns),
			ms(r.P99Ns),
			ms(r.MaxNs),
			types.NewInt(r.PeakMem),
			types.NewInt(r.CacheHits),
			types.NewInt(r.CacheMisses),
		})
	}
	return res
}
