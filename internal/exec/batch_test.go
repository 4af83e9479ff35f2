package exec

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"testing"

	"github.com/mural-db/mural/internal/leakcheck"
	"github.com/mural-db/mural/internal/plan"
	"github.com/mural-db/mural/internal/types"
	"github.com/mural-db/mural/internal/wordnet"
)

// tupleStrings renders result rows for order-insensitive comparison.
func tupleStrings(rows []types.Tuple) []string {
	out := make([]string, len(rows))
	for i, t := range rows {
		out[i] = fmt.Sprint(t)
	}
	return out
}

// drain runs a plan and returns rows plus the collectors, failing the test
// on any error.
func drain(t *testing.T, env Env, node *plan.Node, res *Resources) ([]types.Tuple, *RunStats, *ExecStats) {
	t.Helper()
	es := NewCountStats()
	cur, err := Run(env, node, es, res)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := cur.All()
	if err != nil {
		t.Fatal(err)
	}
	return rows, cur.Stats, es
}

// referenceFilter evaluates cond row by row over a mock table with the
// exported Evaluator: the answer and statement counters every batch path
// must reproduce.
func referenceFilter(t *testing.T, env *mockEnv, table string, cond plan.Expr) ([]types.Tuple, *RunStats) {
	t.Helper()
	ev := NewEvaluator(env)
	var out []types.Tuple
	for _, row := range env.tables[table] {
		ok, err := ev.EvalBool(cond, row)
		if err != nil {
			t.Fatal(err)
		}
		if ok {
			out = append(out, row)
		}
	}
	return out, ev.inner.stats
}

// overIdentityProject rebuilds filter as Filter over an identity Project
// over the same scan: the Filter's child is no longer a SeqScan, so the plan
// runs the generic batch filter instead of the fused kernel.
func overIdentityProject(filter *plan.Node) *plan.Node {
	scan := filter.Children[0]
	projs := make([]plan.Expr, len(scan.Cols))
	for i, c := range scan.Cols {
		projs[i] = &plan.ColIdx{Idx: i, Kind: c.Kind}
	}
	project := &plan.Node{Op: plan.OpProject, Children: []*plan.Node{scan}, Cols: scan.Cols, Projs: projs}
	return &plan.Node{Op: plan.OpFilter, Children: []*plan.Node{project}, Cols: filter.Cols, Cond: filter.Cond}
}

// checkFusedParity runs a Filter-over-SeqScan plan through the fused kernel
// and, reshaped, through the generic batch filter, and checks both against
// the row-by-row reference: same rows in table order, same Ψ evaluations
// and Ω probes, and the same scan and filter statistics.
func checkFusedParity(t *testing.T, env *mockEnv, fused *plan.Node) []types.Tuple {
	t.Helper()
	want, wantStats := referenceFilter(t, env, fused.Children[0].Table, fused.Cond)
	generic := overIdentityProject(fused)
	fusedRows, fusedStats, fusedES := drain(t, env, fused, nil)
	genRows, genStats, genES := drain(t, env, generic, nil)
	for _, got := range []struct {
		name  string
		rows  []types.Tuple
		stats *RunStats
	}{{"fused", fusedRows, fusedStats}, {"generic", genRows, genStats}} {
		if fmt.Sprint(tupleStrings(got.rows)) != fmt.Sprint(tupleStrings(want)) {
			t.Errorf("%s: rows diverge from the reference: got %d want %d", got.name, len(got.rows), len(want))
		}
		if got.stats.PsiEvaluations != wantStats.PsiEvaluations || got.stats.OmegaProbes != wantStats.OmegaProbes {
			t.Errorf("%s: Ψ evals / Ω probes = %d/%d, want %d/%d", got.name,
				got.stats.PsiEvaluations, got.stats.OmegaProbes, wantStats.PsiEvaluations, wantStats.OmegaProbes)
		}
	}
	n := int64(len(env.tables[fused.Children[0].Table]))
	for _, pair := range [][2]*plan.Node{{fused.Children[0], generic.Children[0].Children[0]}, {fused, generic}} {
		f, _ := fusedES.Actual(pair[0])
		g, _ := genES.Actual(pair[1])
		if f.Rows != g.Rows || f.Nexts != g.Nexts || f.Loops != g.Loops {
			t.Errorf("node %s: fused stats = %+v, generic = %+v", pair[0].Op, f, g)
		}
	}
	if s, _ := fusedES.Actual(fused.Children[0]); s.Rows != n || s.Nexts != n+1 {
		t.Errorf("scan stats = %+v, want rows=%d nexts=%d", s, n, n+1)
	}
	if f, _ := fusedES.Actual(fused); f.Rows != int64(len(want)) || f.Nexts != int64(len(want))+1 {
		t.Errorf("filter stats = %+v, want rows=%d nexts=%d", f, len(want), len(want)+1)
	}
	return want
}

// The fused kernel and the generic batch filter must both produce the
// row-by-row reference's results, operator statistics and Ψ evaluation
// counts across batch boundary shapes: empty tables, single rows,
// one-short-of-a-batch, exactly one batch, one over, and multi-batch.
func TestVectorizedParityAcrossSizes(t *testing.T) {
	for _, n := range []int{0, 1, 5, 1023, 1024, 1025, 2500} {
		t.Run(fmt.Sprintf("rows=%d", n), func(t *testing.T) {
			env := newMockEnv()
			mkUniTable(env, "t", n)
			checkFusedParity(t, env, psiFilterScan("t", false))
		})
	}
}

// A projection over a fused filter runs through vectorProjectIter; results
// must match the reference.
func TestVectorizedProjectParity(t *testing.T) {
	env := newMockEnv()
	mkUniTable(env, "t", 3000)
	filter := psiFilterScan("t", false)
	want, _ := referenceFilter(t, env, "t", filter.Cond)
	node := &plan.Node{
		Op:       plan.OpProject,
		Children: []*plan.Node{filter},
		Cols:     []plan.ColInfo{{Name: "n", Kind: types.KindUniText}},
		Projs:    []plan.Expr{&plan.ColIdx{Idx: 0, Kind: types.KindUniText}},
	}
	got, _, _ := drain(t, env, node, nil)
	if fmt.Sprint(tupleStrings(got)) != fmt.Sprint(tupleStrings(want)) {
		t.Errorf("projected rows diverge: got %d want %d", len(got), len(want))
	}
	if len(want) == 0 {
		t.Fatal("test expects survivors")
	}
}

// The fused Ω kernel must reproduce the reference's matches and probe
// counts, as must the generic batch filter.
func TestFusedOmegaScanParity(t *testing.T) {
	net := wordnet.Generate(wordnet.Config{Synsets: 2000, Seed: 9})
	env := newMockEnv()
	env.matcher = wordnet.NewMatcher(net)
	env.tables["cat"] = []types.Tuple{
		{u("historiography", types.LangEnglish)},
		{u("physics", types.LangEnglish)},
		{u("history", types.LangEnglish)},
	}
	cols := []plan.ColInfo{{Rel: "cat", Name: "v", Kind: types.KindUniText}}
	node := &plan.Node{
		Op:       plan.OpFilter,
		Children: []*plan.Node{scanNode("cat", cols)},
		Cols:     cols,
		Cond:     &plan.Omega{L: &plan.ColIdx{Idx: 0}, R: &plan.Const{Val: u("history", types.LangEnglish)}},
	}
	if want := checkFusedParity(t, env, node); len(want) == 0 {
		t.Fatal("test expects Ω survivors")
	}
}

// Canceling a query mid-batch must surface ErrCanceled and leave every
// pooled batch recycled.
func TestBatchCancellationMidBatch(t *testing.T) {
	env := newMockEnv()
	mkUniTable(env, "t", 20000)
	node := psiFilterScan("t", false)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cur, err := Run(env, node, nil, NewResources(ctx, 0))
	if err != nil {
		t.Fatal(err)
	}
	if _, ok, err := cur.Next(); err != nil || !ok {
		t.Fatalf("first Next = ok=%v err=%v", ok, err)
	}
	cancel()
	var lastErr error
	for i := 0; i < 100000; i++ {
		_, ok, err := cur.Next()
		if err != nil {
			lastErr = err
			break
		}
		if !ok {
			break
		}
	}
	if !errors.Is(lastErr, ErrCanceled) {
		t.Fatalf("Next after cancel = %v, want ErrCanceled", lastErr)
	}
	if err := cur.Close(); err != nil {
		t.Fatalf("Close after cancel: %v", err)
	}
	if n := cur.pool.InFlight(); n != 0 {
		t.Errorf("pool in-flight after canceled query = %d, want 0", n)
	}
}

// gatherPsiPlan builds Gather over a parallel Ψ-filtered scan.
func gatherPsiPlan(workers int) *plan.Node {
	return &plan.Node{
		Op:       plan.OpGather,
		Children: []*plan.Node{psiFilterScan("t", true)},
		Cols:     []plan.ColInfo{{Rel: "t", Name: "n", Kind: types.KindUniText}},
		Workers:  workers,
	}
}

// A Gather over the fused kernel must produce the reference's result
// multiset and sum worker loops, with every pooled batch back in the pool
// afterward.
func TestVectorizedGatherParity(t *testing.T) {
	leakcheck.Check(t)
	env := newMockEnv()
	mkUniTable(env, "t", 5000)
	node := gatherPsiPlan(4)
	scan := node.Children[0].Children[0]

	want, wantStats := referenceFilter(t, env, "t", node.Children[0].Cond)
	es := NewCountStats()
	cur, err := Run(env, node, es, nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := cur.All()
	if err != nil {
		t.Fatal(err)
	}

	ws, gs := tupleStrings(want), tupleStrings(got)
	sort.Strings(ws)
	sort.Strings(gs)
	if fmt.Sprint(gs) != fmt.Sprint(ws) {
		t.Errorf("gather rows diverge: got %d want %d", len(gs), len(ws))
	}
	if cur.Stats.PsiEvaluations != wantStats.PsiEvaluations {
		t.Errorf("PsiEvaluations = %d, want %d", cur.Stats.PsiEvaluations, wantStats.PsiEvaluations)
	}
	if st, ok := es.Actual(scan); !ok || st.Loops != 4 {
		t.Errorf("parallel scan loops = %+v (ok=%v), want 4 workers", st, ok)
	}
	if n := cur.pool.InFlight(); n != 0 {
		t.Errorf("pool in-flight after gather drain = %d, want 0", n)
	}
}

// Closing a Gather early must return the in-flight batches — those queued
// on the merge channel and the one being consumed — to the pool, and stop
// every worker.
func TestGatherEarlyCloseReturnsBatchesToPool(t *testing.T) {
	leakcheck.Check(t)
	env := newMockEnv()
	mkUniTable(env, "t", 20000)
	node := gatherPsiPlan(4)
	cur, err := Run(env, node, nil, NewResources(context.Background(), 0))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, ok, err := cur.Next(); err != nil || !ok {
			t.Fatalf("Next %d = ok=%v err=%v", i, ok, err)
		}
	}
	if err := cur.Close(); err != nil {
		t.Fatalf("early Close: %v", err)
	}
	if n := cur.pool.InFlight(); n != 0 {
		t.Errorf("pool in-flight after early Close = %d, want 0", n)
	}
}

// A fully drained query must leave the pool empty and the memory accountant
// settled.
func TestVectorizedDrainSettlesPoolAndMemory(t *testing.T) {
	env := newMockEnv()
	mkUniTable(env, "t", 4000)
	node := psiFilterScan("t", false)
	res := NewResources(context.Background(), 0)
	cur, err := Run(env, node, nil, res)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := cur.All()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) == 0 {
		t.Fatal("test expects survivors")
	}
	if n := cur.pool.InFlight(); n != 0 {
		t.Errorf("pool in-flight after drain = %d, want 0", n)
	}
	if b := res.MemBytes(); b != 0 {
		t.Errorf("accounted bytes after drain = %d, want 0", b)
	}
	if res.PeakBytes() == 0 {
		t.Error("peak bytes = 0: batches were never charged")
	}
}

// The fused Ψ-scan's steady state must not allocate per row: a zero-survivor
// drain over thousands of rows stays within a small constant allocation
// budget (pipeline construction plus one pooled batch), pinning the
// zero-alloc reject path.
func TestFusedPsiScanSteadyStateAllocs(t *testing.T) {
	env := newMockEnv()
	const n = 4096
	mkUniTable(env, "t", n)
	env.pagesFor("t")
	cols := []plan.ColInfo{{Rel: "t", Name: "n", Kind: types.KindUniText}}
	scan := scanNode("t", cols)
	node := &plan.Node{
		Op:       plan.OpFilter,
		Children: []*plan.Node{scan},
		Cols:     cols,
		// No stored name is within distance 0 of this probe: zero survivors.
		Cond: &plan.Psi{L: &plan.ColIdx{Idx: 0}, R: &plan.Const{Val: types.NewText("zzzzzzzz")}},
	}
	run := func() {
		cur, err := Run(env, node, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		rows, err := cur.All()
		if err != nil {
			t.Fatal(err)
		}
		if len(rows) != 0 {
			t.Fatalf("expected zero survivors, got %d", len(rows))
		}
	}
	run() // warm the G2P caches
	allocs := testing.AllocsPerRun(20, run)
	if allocs > 100 {
		t.Errorf("fused Ψ scan allocated %.0f times for %d rows; want a small constant (allocs/row ~0)", allocs, n)
	}
}
