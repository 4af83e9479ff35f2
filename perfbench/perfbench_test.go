package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"testing"
	"time"

	"github.com/mural-db/mural/internal/client"
	"github.com/mural-db/mural/internal/wordnet"
)

// definitionPath is the benchmark definition at the repository root.
const definitionPath = "../BENCHMARK.json"

func shortRun(t *testing.T, name string, seed int64) *run {
	t.Helper()
	w := findWorkload(name)
	if w == nil {
		t.Fatalf("no workload %q", name)
	}
	dir := t.TempDir()
	return &run{w: w, seed: seed, short: true, sz: w.sizes(true), work: dir, traces: filepath.Join(dir, "traces")}
}

// allWorkloads are every runnable workload, after checking that each one
// BENCHMARK.json names exists.
func allWorkloads(t *testing.T) []string {
	t.Helper()
	b, err := os.ReadFile(definitionPath)
	if err != nil {
		t.Fatal(err)
	}
	var def struct {
		Workloads []struct{ Name string }
	}
	if err := json.Unmarshal(b, &def); err != nil {
		t.Fatal(err)
	}
	for _, w := range def.Workloads {
		if findWorkload(w.Name) == nil {
			t.Fatalf("BENCHMARK.json names unknown workload %q", w.Name)
		}
	}
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return names
}

func metricNames(res *result) map[string]string {
	out := map[string]string{}
	for k, v := range res.Metrics {
		out[k] = v.Unit
	}
	return out
}

// Every workload, untraced and traced, emits exactly the declared metrics
// with their units, answers correctly and repeats its exact counts; a
// second seed changes the inputs but not the metric names.
func TestEveryMetricEmitted(t *testing.T) {
	for _, name := range allWorkloads(t) {
		for _, traced := range []bool{false, true} {
			var names []map[string]string
			for _, seed := range []int64{1, 2} {
				r := shortRun(t, name, seed)
				run := runPlain
				if traced {
					run = runTraced
				}
				res, rec, err := run(r, 500*time.Millisecond)
				if err != nil {
					t.Fatalf("%s traced=%v seed %d: %v", name, traced, seed, err)
				}
				if !res.Correct {
					t.Fatalf("%s traced=%v seed %d: check failed: %v", name, traced, seed, rec["check_error"])
				}
				if res.Attempted < 1 || res.Failed != 0 {
					t.Fatalf("%s traced=%v seed %d: attempted %d failed %d", name, traced, seed, res.Attempted, res.Failed)
				}
				if err := checkDeclared(definitionPath, traced, res); err != nil {
					t.Fatalf("%s traced=%v seed %d: %v", name, traced, seed, err)
				}
				names = append(names, metricNames(res))
			}
			if len(names[0]) != len(names[1]) {
				t.Fatalf("%s: seeds emit different metric sets", name)
			}
			for k, u := range names[0] {
				if names[1][k] != u {
					t.Fatalf("%s: metric %s differs between seeds", name, k)
				}
			}
		}
	}
}

func TestSeedChangesInputs(t *testing.T) {
	sz := findWorkload("lookup").sizes(true)
	a, b := generate(1, sz), generate(2, sz)
	if a.names[0].Name.Text == b.names[0].Name.Text && a.queries[0].Name.Text == b.queries[0].Name.Text {
		t.Fatal("seeds 1 and 2 generated the same names")
	}
	if a.concepts[0] == b.concepts[0] && a.items[0] == b.items[0] {
		t.Fatal("seeds 1 and 2 generated the same taxonomy inputs")
	}
	c := generate(1, sz)
	if a.names[5] != c.names[5] || a.items[5] != c.items[5] || a.concepts[3] != c.concepts[3] {
		t.Fatal("one seed generated different inputs twice")
	}
}

// window sets a workload up once and runs its closed loop briefly.
func window(t *testing.T, name string) (*run, *instance, []outcome) {
	t.Helper()
	r := shortRun(t, name, 3)
	it, _, err := setupAll(r, seams{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = it.Close() })
	outs, _, err := closedLoop(it.addr, client.Dialer{}, it.mixes, 300*time.Millisecond, newLatencies(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.w.check(r, it, outs); err != nil {
		t.Fatalf("unperturbed run fails its check: %v", err)
	}
	return r, it, outs
}

// The oracle fails a run whose expected answers are perturbed: a matching
// row's stored phoneme changed, a concept's closure emptied, a probe row
// left out of the join, an insert acknowledged that the engine never
// received.
func TestOracleRejectsPerturbedAnswers(t *testing.T) {
	t.Run("psi", func(t *testing.T) {
		r, it, outs := window(t, "lookup")
		for _, o := range outs {
			if o.op.cls == clsPsi && len(o.ids) > 0 {
				r.in.names[o.ids[0]].Name.Phoneme = "zzzzzzzzzzzz" // now matches nothing
				r.orc = newOracle(r.in)
				if err := r.w.check(r, it, outs); err == nil {
					t.Fatal("check passed with a perturbed Ψ expectation")
				}
				return
			}
		}
		t.Fatal("no Ψ answer with rows to perturb")
	})
	t.Run("omega", func(t *testing.T) {
		r, it, outs := window(t, "lookup")
		for _, o := range outs {
			if o.op.cls == clsOmega && o.count > 0 {
				r.orc.closures[r.in.concepts[o.op.c].Root] = map[wordnet.SynsetID]struct{}{}
				if err := r.w.check(r, it, outs); err == nil {
					t.Fatal("check passed with a perturbed Ω expectation")
				}
				return
			}
		}
		t.Fatal("no Ω answer with rows to perturb")
	})
	t.Run("join", func(t *testing.T) {
		r, it, outs := window(t, "psi-join")
		r.sz.Probes-- // the oracle joins one probe row fewer
		if err := r.w.check(r, it, outs); err == nil {
			t.Fatal("check passed with a perturbed join expectation")
		}
	})
	t.Run("ingest", func(t *testing.T) {
		r, it, outs := window(t, "ingest")
		// Claim one more acknowledged insert than the engine received.
		for i := len(outs) - 1; i >= 0; i-- {
			if outs[i].op.cls == clsInsert {
				extra := *outs[i].op
				extra.rec = len(r.in.extra) - 1
				outs = append(outs, outcome{op: &extra, start: outs[i].start, end: outs[i].end})
				break
			}
		}
		if err := r.w.check(r, it, outs); err == nil {
			t.Fatal("reopen check passed with a row that was never inserted")
		}
	})
}

func TestParseAnalyze(t *testing.T) {
	const text = `Aggregate  (rows=1 cost=25.0) (actual rows=1 loops=1 time=138µs)
  Gather workers=2  (rows=5 cost=12.5) (actual rows=3 loops=1 time=130µs)
    Filter cond=[Ω(items.cat, 'x') IN english]  (rows=5 cost=25.0) (actual rows=3 loops=2 time=200µs)
      SeqScan items [parallel]  (rows=1000 cost=20.0) (actual rows=1000 loops=2 time=40µs)
Actual: rows=1 elapsed=146.665µs index_pages=0 psi_evals=0 omega_probes=1000
`
	ns := parseAnalyze(text)
	if len(ns) != 4 {
		t.Fatalf("parsed %d nodes", len(ns))
	}
	self := map[string]time.Duration{}
	for _, n := range ns {
		self[n.name] = n.self
	}
	if self["Aggregate"] != 8*time.Microsecond || self["Gather"] != 30*time.Microsecond ||
		self["Filter"] != 160*time.Microsecond || self["SeqScan"] != 40*time.Microsecond {
		t.Fatalf("self times %v", self)
	}
	// A fused filter-over-scan reports one time on both nodes; it is the
	// filter's.
	fused := parseAnalyze(`Filter cond=[Ψ(names.name, 'x', k=1)]  (rows=4 cost=89.3) (actual rows=4 loops=2 time=1.346ms)
  SeqScan names [parallel]  (rows=5000 cost=74.0) (actual rows=5000 loops=2 time=1.346ms)
`)
	if fused[0].self != 1346*time.Microsecond || fused[1].self != 0 || execBucket(fused[0]) != "exec.psi_filter_self_ms" {
		t.Fatalf("fused self times %v %v", fused[0].self, fused[1].self)
	}
	if p := predicateNode(ns); p == nil || p.name != "Filter" || p.rows != 3 || p.estRows != 5 {
		t.Fatalf("predicate node %+v", p)
	}
}

func TestCovered(t *testing.T) {
	spans := []span{{Start: 0, End: 10}, {Start: 5, End: 20}, {Start: 30, End: 40}, {Start: 45, End: 60}}
	if got := covered(spans, 2, 50); got != 18+10+5 {
		t.Fatalf("covered = %d", got)
	}
}

func TestSaneRejectsImpossibleFigures(t *testing.T) {
	ok := metrics{"storage.pool_hit_ratio": {0.9, "ratio"}, "shard.skew": {1.4, "ratio"},
		"plan.cost_corr": {-0.2, "r"}, "trace.overhead_ratio": {-0.05, "ratio"}, "storage.disk_reads_per_op": {3, "count"}}
	if err := ok.sane(); err != nil {
		t.Fatal(err)
	}
	for name, v := range map[string]metric{
		"plan.cache_hit_ratio":      {1.5, "ratio"},
		"storage.disk_reads_per_op": {float64(^uint64(0)) / 100, "count"}, // a counter difference that wrapped
		"plan.cost_corr":            {1.2, "r"},
		"wire.rtt_us":               {-3, "us"},
	} {
		bad := metrics{name: v}
		if err := bad.sane(); err == nil {
			t.Errorf("%s = %v passed", name, v.Value)
		}
	}
}

// The CPU metrics weigh each class the same whatever its share of the
// statements: an Ω-only slowdown by f moves them by √f.
func TestClassQuantileWeighsClassesEqually(t *testing.T) {
	psi, omega := &op{cls: clsPsi}, &op{cls: clsOmega}
	outs := func(omegaCPU time.Duration) []outcome {
		var o []outcome
		for i := 0; i < 30; i++ {
			o = append(o, outcome{op: psi, cpu: time.Millisecond})
		}
		for i := 0; i < 10; i++ {
			o = append(o, outcome{op: omega, cpu: omegaCPU})
		}
		return o
	}
	cls := []opClass{clsPsi, clsOmega}
	if got := classQuantile(cls, outs(4*time.Millisecond), 0.5, cpuMS); math.Abs(got-2) > 1e-9 {
		t.Fatalf("geometric mean of 1 ms and 4 ms = %v", got)
	}
	if got := classQuantile(cls, outs(16*time.Millisecond), 0.5, cpuMS); math.Abs(got-4) > 1e-9 {
		t.Fatalf("a 4x Ω slowdown moved the metric to %v, not 2x", got)
	}
}

// Every statement of a one-session window is charged the CPU time it used.
func TestStatementsChargedCPU(t *testing.T) {
	_, it, outs := window(t, "psi-join")
	if len(it.mixes) != 1 || len(outs) == 0 {
		t.Fatalf("%d sessions, %d statements", len(it.mixes), len(outs))
	}
	for _, o := range outs {
		if o.cpu <= 0 {
			t.Fatalf("%q charged %v CPU", o.op.sql, o.cpu)
		}
	}
}
