package exec

import (
	"context"
	"errors"
	"testing"

	"github.com/mural-db/mural/internal/leakcheck"
)

// A Gather worker whose merge-batch Grow trips the memory ceiling must
// return the failed batch's bytes: Grow records the charge even on failure,
// and the batch never reaches the consumer, so nothing downstream can
// release it. Regression test — the flush path used to return the error
// with the charge still accounted.
func TestGatherGrowFailureReleasesBatchCharge(t *testing.T) {
	leakcheck.Check(t)
	env := newMockEnv()
	mkIntTable(env, "t", 2000)
	gather := gatherOverScan("t", 2, true)
	// A 1-byte ceiling fails the first merge-batch Grow in every worker.
	res := NewResources(context.Background(), 1)
	cur, err := Run(env, gather, nil, res)
	if err != nil {
		t.Fatal(err)
	}
	var lastErr error
	for i := 0; i < 5000; i++ {
		_, ok, err := cur.Next()
		if err != nil {
			lastErr = err
			break
		}
		if !ok {
			break
		}
	}
	if !errors.Is(lastErr, ErrMemoryLimit) {
		t.Fatalf("Next under 1-byte budget = %v, want ErrMemoryLimit", lastErr)
	}
	if err := cur.Close(); err != nil {
		t.Fatalf("Close after memory-limit error: %v", err)
	}
	if got := res.MemBytes(); got != 0 {
		t.Errorf("MemBytes after Close = %d, want 0 (failed batch's charge must be returned)", got)
	}
}

// governedWorkerEvaluator builds the evaluator shape a Gather worker gets:
// shared governance state, private tick counter.
func governedWorkerEvaluator(env Env, ctx context.Context) *evaluator {
	return &evaluator{env: env, stats: &RunStats{}, res: NewResources(ctx, 0)}
}

// drainSource pulls pages from a record source with a consumer that never
// checkpoints itself, returning the first error; a source that drains to
// completion fails the test.
func drainSource(t *testing.T, src RecordScan, maxPages int) error {
	t.Helper()
	defer src.Close()
	for i := 0; i < maxPages; i++ {
		more, err := src.NextPage(func([]byte) error { return nil })
		if err != nil {
			return err
		}
		if !more {
			t.Fatal("record source drained to completion despite canceled context")
		}
	}
	return nil
}

// A morsel record source over a canceled query must surface ErrCanceled
// within one tick interval instead of draining the table, even when its
// consumer never checkpoints. Regression test — the claim loop used to run
// without a cancellation checkpoint.
func TestMorselScanChecksCancellation(t *testing.T) {
	env := newMockEnv()
	// Enough pages that the amortized checkpoint (every cancelInterval
	// ticks) fires well before exhaustion.
	mkIntTable(env, "t", 4*cancelInterval)
	np, err := env.TablePages("t")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	src := &morselRecordSource{
		env: env,
		ev:  governedWorkerEvaluator(env, ctx),
		src: &morselSource{table: "t", npages: np},
	}
	if err := drainSource(t, src, 4*cancelInterval); !errors.Is(err, ErrCanceled) {
		t.Fatalf("morsel scan under canceled context = %v, want ErrCanceled", err)
	}
}

// The striped record source must checkpoint too: a worker withholds mod-1
// of every mod records from its consumer, so the checkpoint cannot live only
// in the consumer's per-record loop. Regression test — the stripe loop used
// to run without a cancellation checkpoint.
func TestStripedScanChecksCancellation(t *testing.T) {
	env := newMockEnv()
	mkIntTable(env, "t", 4*cancelInterval)
	np, err := env.TablePages("t")
	if err != nil {
		t.Fatal(err)
	}
	scan, err := env.ScanRecords("t", 0, np)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	src := &stripedRecordSource{scan: scan, ev: governedWorkerEvaluator(env, ctx), idx: 0, mod: 4}
	src.keep = src.stripe
	if err := drainSource(t, src, 4*cancelInterval); !errors.Is(err, ErrCanceled) {
		t.Fatalf("striped scan under canceled context = %v, want ErrCanceled", err)
	}
}

// Sanity companion to the regression tests above: an ungoverned parallel
// scan (nil Resources) still terminates and returns every row — the new
// checkpoints must be free when the query has no governance state.
func TestParallelScanUngovernedStillDrains(t *testing.T) {
	env := newMockEnv()
	want := mkIntTable(env, "t", 100)
	got := runAll(t, env, gatherOverScan("t", 2, true))
	eqRowSets(t, got, want)
}
