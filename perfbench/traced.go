package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"github.com/mural-db/mural/internal/client"
	"github.com/mural-db/mural/internal/sql"
	"github.com/mural-db/mural/internal/storage"
	"github.com/mural-db/mural/mural"
)

// replayed is one statement of the single-session traced replay, with the
// layer calls made for it after it returned.
type replayed struct {
	op          *op
	lat         time.Duration // client call
	engine      time.Duration // the engine's own time for the statement (Config.Tracer)
	unaccounted time.Duration // client call time no child span covers
	parse, plan time.Duration // sql.Parse; EXPLAIN minus parse
	elapsed     time.Duration // executor time from EXPLAIN ANALYZE
	cost        float64       // optimizer cost from EXPLAIN ANALYZE
	nodes       []*planNode
	alloc       uint64 // heap bytes allocated during the client call
	counts      counts
}

// counts are the per-statement figures that must repeat exactly at a fixed
// seed; the traced run replays twice on fresh set-ups and compares them.
type counts struct {
	Rows        int64  `json:"rows"`
	PsiEvals    int64  `json:"psi_evals"`
	OmegaProbes int64  `json:"omega_probes"`
	WALCommits  uint64 `json:"wal_commits"`
}

// replayLen is how many statements the single-session replay sends.
func replayLen(r *run) int {
	n := 100
	if r.w.name == "psi-join" {
		n = 2 * maxK
	}
	if r.short {
		n = min(n, 30)
	}
	return n
}

// replay sends the first statements of the instance's session mixes,
// round-robin, over one wire session, then makes the layer calls for each:
// sql.Parse, EXPLAIN and EXPLAIN ANALYZE. With tr nil only the counts are
// collected.
func replay(r *run, it *instance, tr *tracer, s seams) ([]replayed, error) {
	conn, err := client.Dialer{Wrap: s.conn}.Dial(it.addr)
	if err != nil {
		return nil, err
	}
	defer conn.Close()
	conn.FetchSize = 4096
	var out []replayed
	if it.inserted == nil {
		it.inserted = map[int]bool{}
	}
	inserted := it.inserted
	for i := 0; len(out) < replayLen(r); i++ {
		o := it.mixes[i%len(it.mixes)]()
		if o == nil {
			break
		}
		var rp replayed
		rp.op = o
		var spanID uint64
		var start int64
		from := 0
		if tr != nil {
			from = tr.mark()
			tr.cur.Store(uint64(len(out) + 1))
			spanID = tr.next.Add(1)
			tr.curID.Store(spanID)
			start = tr.now()
		}
		w0 := it.eng.WALStats()
		a0 := allocBytes()
		t0 := time.Now()
		ids, n, err := execOp(conn, o)
		rp.lat = time.Since(t0)
		rp.alloc = allocBytes() - a0
		rp.counts.WALCommits = it.eng.WALStats().Commits - w0.Commits
		rp.counts.Rows = n
		if tr != nil {
			end := tr.now()
			tr.mu.Lock()
			tr.spans = append(tr.spans, span{ID: spanID, Op: tr.cur.Load(), Name: "client." + o.cls.String(), Start: start, End: end})
			tr.mu.Unlock()
			tr.curID.Store(0)
			kids := tr.children(spanID, from)
			for _, k := range kids {
				if k.Name == "engine.statement" {
					rp.engine += time.Duration(k.End - k.Start)
				}
			}
			rp.unaccounted = time.Duration(end-start) - covered(kids, start, end)
		}
		if err != nil {
			return out, fmt.Errorf("replay %q: %w", o.sql, err)
		}
		if err := checkReplayed(r, o, ids, n, inserted); err != nil {
			return out, err
		}
		if o.cls == clsInsert {
			inserted[o.rec] = true
		}
		if err := layerCalls(it.eng, tr, &rp); err != nil {
			return out, err
		}
		out = append(out, rp)
	}
	if tr != nil {
		tr.cur.Store(0)
	}
	return out, nil
}

// checkReplayed checks a replayed answer; in the single session every
// earlier insert has been acknowledged, so reads must see exactly those.
func checkReplayed(r *run, o *op, ids []int64, n int64, inserted map[int]bool) error {
	switch o.cls {
	case clsPsi:
		q, langs := r.in.queries[o.q], psiLangs[o.langs]
		want := r.orc.psiIDs(q, o.k, langs)
		for rec := range inserted {
			if psiMatch(q, r.in.extra[rec], o.k, langs) {
				want = append(want, int64(r.in.extra[rec].ID))
			}
		}
		sort.Slice(want, func(a, b int) bool { return want[a] < want[b] })
		if !equalIDs(ids, want) {
			return mismatch(o, ids, want)
		}
	case clsOmega:
		if want := r.orc.omegaCount(r.in.concepts[o.c], omegaLangs[o.langs]); n != want {
			return mismatch(o, n, want)
		}
	case clsJoin:
		if want := r.orc.joinCount(probeRows(r.in.names, r.sz.Probes), o.k); n != want {
			return mismatch(o, n, want)
		}
	}
	return nil
}

// layerCalls times the parser and planner on the statement and folds in
// the executor's per-operator times from EXPLAIN ANALYZE.
func layerCalls(eng *mural.Engine, tr *tracer, rp *replayed) error {
	var err error
	rp.parse = tr.timed("sql.parse", func() { _, err = sql.Parse(rp.op.sql) })
	if err != nil || rp.op.cls == clsInsert {
		return err
	}
	explain := tr.timed("plan.explain", func() { _, err = eng.Exec("EXPLAIN " + rp.op.sql) })
	if err != nil {
		return err
	}
	rp.plan = max(explain-rp.parse, 0)
	var res *mural.Result
	s := tr.begin()
	res, err = eng.Exec("EXPLAIN ANALYZE " + rp.op.sql)
	if err != nil {
		return err
	}
	tr.end("exec.analyze", s, 0)
	rp.elapsed, rp.cost = res.Elapsed, res.PlanCost
	rp.nodes = parseAnalyze(res.Plan)
	rp.counts.PsiEvals, rp.counts.OmegaProbes = res.Stats.PsiEvaluations, res.Stats.OmegaProbes
	if tr != nil && s >= 0 {
		// Operator self times as spans laid end to end inside the ANALYZE
		// span: their order is not the execution order, their lengths are.
		at := s
		for _, n := range rp.nodes {
			tr.add(span{Op: tr.cur.Load(), Name: "exec." + n.name, Start: at, End: at + int64(n.self)})
			at += int64(n.self)
		}
	}
	return nil
}

// runTraced is the per-layer pass: a traced single-session replay on a
// fresh set-up, a closed-loop window alternating tracing on and off (for
// the overhead and the cache and pool ratios), a second replay on another
// fresh set-up whose counts must equal the first's, and the layer probes.
func runTraced(r *run, window time.Duration) (*result, map[string]any, error) {
	tr := newTracer()
	sm := tr.seams()
	it, setups, err := setupAll(r, sm, 1)
	if err != nil {
		return nil, nil, err
	}
	defer func() { _ = it.Close() }()

	tr.on.Store(true)
	reps, err := replay(r, it, tr, sm)
	tr.on.Store(false)
	replayEnd := tr.mark()
	if err != nil {
		return nil, nil, err
	}
	m := metrics{}
	m.fromReplay(reps, tr)

	// Closed loop with tracing toggled every 250 ms.
	b0, c0, w0 := it.data.BufferStats(), it.eng.CacheStats(), it.eng.WALStats()
	mark := tr.mark()
	on, off := newLatencies(), newLatencies()
	tog := &toggler{tr: tr, on: on, off: off, stop: make(chan struct{}), done: make(chan struct{})}
	go tog.run(250 * time.Millisecond)
	outs, _, err := closedLoop(it.addr, client.Dialer{Wrap: sm.conn}, it.mixes, window, newLatencies(), tog)
	tog.halt()
	if err != nil {
		return nil, nil, err
	}
	// The window's figures and the probes read the engine the window ran
	// on; ingest's check closes it and reopens another.
	if err := m.fromWindow(r, it, outs, b0, c0, w0, tr, mark, on, off); err != nil {
		return nil, nil, err
	}
	probeErr := m.probes(r, it, reps, tr, replayEnd)
	if err := m.sane(); err != nil {
		return nil, nil, err
	}
	checkErr := r.w.check(r, it, outs)
	if checkErr == nil {
		checkErr = probeErr
	}

	// Second fresh set-up: the counts must repeat exactly.
	it2, _, err := setupAll(r, seams{}, 1)
	if err != nil {
		return nil, nil, err
	}
	reps2, err := replay(r, it2, nil, seams{})
	if cerr := it2.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, nil, err
	}
	if checkErr == nil {
		checkErr = sameCounts(reps, reps2)
	}
	spansPath := filepath.Join(r.traces, fmt.Sprintf("%s-seed%d.jsonl", r.w.name, r.seed))
	if err := os.MkdirAll(r.traces, 0o755); err != nil {
		return nil, nil, err
	}
	if err := tr.write(spansPath); err != nil {
		return nil, nil, err
	}
	failed := 0
	for _, o := range outs {
		if o.err != nil {
			failed++
		}
	}
	res := &result{Correct: checkErr == nil, Attempted: len(outs) + len(reps) + len(reps2), Failed: failed, Metrics: map[string]metric(m)}
	rec := record(r, it, setups)
	rec["spans_file"], rec["spans"] = spansPath, tr.mark()
	cs := make([]counts, len(reps))
	for i, rp := range reps {
		cs[i] = rp.counts
	}
	rec["replay_counts"] = cs
	if checkErr != nil {
		rec["check_error"] = checkErr.Error()
		fmt.Fprintln(os.Stderr, "perfbench: CHECK FAILED:", checkErr)
	}
	return res, rec, nil
}

func sameCounts(a, b []replayed) error {
	if len(a) != len(b) {
		return fmt.Errorf("exact counts: replays sent %d and %d statements", len(a), len(b))
	}
	for i := range a {
		if a[i].counts != b[i].counts {
			return fmt.Errorf("exact counts: statement %d %q: %+v then %+v", i, a[i].op.sql, a[i].counts, b[i].counts)
		}
	}
	return nil
}

// toggler flips tracing on and off on a fixed period during the overhead
// window and files each statement's latency under the state it started in.
type toggler struct {
	tr         *tracer
	on, off    *latencies
	stop, done chan struct{}
}

func (g *toggler) run(period time.Duration) {
	defer close(g.done)
	t := time.NewTicker(period)
	defer t.Stop()
	for {
		select {
		case <-g.stop:
			g.tr.on.Store(false)
			return
		case <-t.C:
			v := !g.tr.on.Load()
			g.tr.on.Store(v)
		}
	}
}

func (g *toggler) halt() {
	close(g.stop)
	<-g.done
}

// opStart and opEnd bracket each closed-loop statement: a client-call span
// when tracing is on, and the latency filed under the tracing state at the
// start.
func (g *toggler) opStart() uint64 {
	st := uint64(g.tr.now())
	if g.tr.on.Load() {
		st |= 1 << 63
	}
	return st
}

func (g *toggler) opEnd(id uint64, o *op, d time.Duration, err error) {
	start := int64(id &^ (1 << 63))
	l := g.off
	if id&(1<<63) != 0 {
		g.tr.add(span{Name: "client." + o.cls.String(), Start: start, End: g.tr.now()})
		l = g.on
	}
	if err != nil {
		l.fail(o.cls)
		return
	}
	l.add(o.cls, d)
}

// metrics accumulates the per-layer figures.
type metrics map[string]metric

func (m metrics) set(name string, v float64, unit string) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	m[name] = metric{v, unit}
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

func medianOf[T any](xs []T, f func(T) (float64, bool)) float64 {
	var v []float64
	for _, x := range xs {
		if y, ok := f(x); ok {
			v = append(v, y)
		}
	}
	return median(v)
}

// fromReplay derives the parser, planner, executor and wire figures from
// the single-session replay.
func (m metrics) fromReplay(reps []replayed, tr *tracer) {
	reads := func(rp replayed) bool { return rp.op.cls != clsInsert }
	m.set("sql.parse_us", medianOf(reps, func(rp replayed) (float64, bool) { return us(rp.parse), true }), "us")
	m.set("plan.plan_us", medianOf(reps, func(rp replayed) (float64, bool) { return us(rp.plan), reads(rp) }), "us")
	m.set("plan.card_err_log10", medianOf(reps, func(rp replayed) (float64, bool) {
		n := predicateNode(rp.nodes)
		if n == nil {
			return 0, false
		}
		return cardErr(n), true
	}), "log10")
	var lc, lt []float64
	var psiSel, mtree int
	buckets := map[string]time.Duration{}
	var nreads, psiEvals, psiMatches, omega int64
	for _, rp := range reps {
		if !reads(rp) {
			continue
		}
		nreads++
		if rp.cost > 0 && rp.elapsed > 0 {
			lc = append(lc, math.Log(rp.cost))
			lt = append(lt, math.Log(float64(rp.elapsed)))
		}
		if rp.op.cls == clsPsi {
			psiSel++
			if strings.Contains(strings.Join(nodeNames(rp.nodes), " "), "IndexScan(MTree)") {
				mtree++
			}
		}
		for _, n := range rp.nodes {
			if b := execBucket(n); b != "" {
				buckets[b] += n.self
			}
		}
		psiEvals += rp.counts.PsiEvals
		omega += rp.counts.OmegaProbes
		if n := predicateNode(rp.nodes); n != nil && rp.op.cls != clsOmega {
			psiMatches += n.rows
		}
	}
	m.set("plan.cost_corr", pearson(lc, lt), "r")
	m.set("plan.mtree_share", float64(mtree)/float64(max(psiSel, 1)), "ratio")
	for _, b := range []string{"exec.scan_self_ms", "exec.psi_filter_self_ms", "exec.omega_filter_self_ms",
		"exec.join_self_ms", "exec.gather_self_ms", "exec.agg_self_ms"} {
		m.set(b, ms(buckets[b])/float64(max(nreads, 1)), "ms")
	}
	m.set("exec.psi_evals_per_op", float64(psiEvals)/float64(max(nreads, 1)), "count")
	m.set("exec.psi_useful_ratio", float64(psiMatches)/float64(max(psiEvals, 1)), "ratio")
	m.set("exec.omega_probes_per_op", float64(omega)/float64(max(nreads, 1)), "count")
	m.set("wire.rtt_us", medianOf(reps, func(rp replayed) (float64, bool) { return us(rp.lat - rp.engine), true }), "us")
	m.set("trace.unaccounted_ms", medianOf(reps, func(rp replayed) (float64, bool) { return ms(rp.unaccounted), true }), "ms")
	m.set("runtime.alloc_bytes_per_op", medianOf(reps, func(rp replayed) (float64, bool) { return float64(rp.alloc), true }), "B")
	_, _, rb := tr.sum("wire.read", 0)
	_, _, wb := tr.sum("wire.write", 0)
	m.set("wire.bytes_per_op", float64(rb+wb)/float64(max(len(reps), 1)), "B")
}

func nodeNames(ns []*planNode) []string {
	out := make([]string, len(ns))
	for i, n := range ns {
		out[i] = n.name
	}
	return out
}

func ratio(hits, misses uint64) float64 {
	if hits+misses == 0 {
		return 0
	}
	return float64(hits) / float64(hits+misses)
}

// fromWindow derives the cache, pool and WAL figures and the tracing
// overhead from the closed-loop window. It fails if a counter went
// backwards: the engine was replaced after the window.
func (m metrics) fromWindow(r *run, it *instance, outs []outcome,
	b0 storage.PoolStats, c0 mural.CacheStats, w0 storage.WALStats, tr *tracer, mark int, on, off *latencies) error {
	b, c, w := it.data.BufferStats(), it.eng.CacheStats(), it.eng.WALStats()
	backwards := false
	d := func(then, now uint64) uint64 {
		if now < then {
			backwards = true
			return 0
		}
		return now - then
	}
	nops := float64(max(len(outs), 1))
	m.set("plan.cache_hit_ratio", ratio(d(c0.Plan.Hits, c.Plan.Hits), d(c0.Plan.Misses, c.Plan.Misses)), "ratio")
	m.set("phonetic.g2p_hit_ratio", ratio(d(c0.G2P.Hits, c.G2P.Hits), d(c0.G2P.Misses, c.G2P.Misses)), "ratio")
	m.set("wordnet.closure_hit_ratio", ratio(d(c0.Closure.Hits, c.Closure.Hits), d(c0.Closure.Misses, c.Closure.Misses)), "ratio")
	m.set("storage.pool_hit_ratio", ratio(d(b0.Hits, b.Hits), d(b0.Misses, b.Misses)), "ratio")
	m.set("storage.disk_reads_per_op", float64(d(b0.DiskReads, b.DiskReads))/nops, "count")
	m.set("storage.evictions_per_op", float64(d(b0.Evictions, b.Evictions))/nops, "count")
	if commits := d(w0.Commits, w.Commits); commits > 0 {
		m.set("storage.wal_syncs_per_commit", float64(d(w0.Syncs, w.Syncs))/float64(commits), "ratio")
	}
	if backwards {
		return fmt.Errorf("window counters went backwards: read from another engine than the window ran on")
	}
	if n, d, _ := tr.sum("storage.read_page", 0); n > 0 {
		m.set("storage.page_read_us", us(d)/float64(n), "us")
	}
	if n, d, _ := tr.sum("storage.wal_fsync", 0); n > 0 {
		m.set("storage.wal_fsync_ms", ms(d)/float64(n), "ms")
	}
	// The byte spans exist only while tracing is on, so they are shared
	// over the inserts that started while it was.
	if rows := len(on.sorted(clsInsert)); rows > 0 {
		_, _, wb := tr.sum("storage.wal_write", mark)
		_, _, db := tr.sum("storage.write_page", mark)
		m.set("storage.wal_bytes_per_row", float64(wb)/float64(rows), "B")
		m.set("storage.data_bytes_per_row", float64(db)/float64(rows), "B")
	}
	pOn, pOff := percentile(on.sorted(r.w.primary...), 0.5), percentile(off.sorted(r.w.primary...), 0.5)
	if pOff > 0 {
		m.set("trace.overhead_ratio", pOn/pOff-1, "ratio")
	}
	return nil
}

// sane rejects figures no correct measurement gives: a hit ratio, share or
// precision outside [0, 1], a correlation outside [-1, 1], or a negative
// or absurdly large count, size or time (a counter difference taken across
// two engines wraps around to near 2^64).
func (m metrics) sane() error {
	for name, v := range m {
		lo, hi := 0.0, 1e12
		switch {
		case name == "trace.overhead_ratio":
			lo = -1
		case name == "plan.cost_corr":
			lo, hi = -1, 1
		case v.Unit == "ratio" && name != "shard.skew" && name != "storage.wal_syncs_per_commit":
			hi = 1
		}
		if math.IsNaN(v.Value) || v.Value < lo || v.Value > hi {
			return fmt.Errorf("metric %s = %v %s is outside [%g, %g]", name, v.Value, v.Unit, lo, hi)
		}
	}
	return nil
}
