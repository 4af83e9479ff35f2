package exec

import (
	"errors"
	"testing"

	"github.com/mural-db/mural/internal/plan"
	"github.com/mural-db/mural/internal/types"
)

// trackIter wraps a child iterator and records Close calls; closeErr is
// returned from Close to test error propagation.
type trackIter struct {
	TupleIter
	closed   bool
	closeErr error
}

func (t *trackIter) Close() error {
	t.closed = true
	return t.closeErr
}

// trackScan wraps a record scan and records its Close.
type trackScan struct {
	RecordScan
	closed bool
}

func (t *trackScan) Close() error {
	t.closed = true
	return t.RecordScan.Close()
}

// closeTrackEnv wraps mockEnv so every record scan it opens is tracked.
type closeTrackEnv struct {
	*mockEnv
	tracked []*trackScan
}

func (e *closeTrackEnv) ScanRecords(table string, lo, hi int64) (RecordScan, error) {
	rs, err := e.mockEnv.ScanRecords(table, lo, hi)
	if err != nil {
		return nil, err
	}
	t := &trackScan{RecordScan: rs}
	e.tracked = append(e.tracked, t)
	return t, nil
}

// A join builder whose right child fails to build must close the left
// child it already opened, not leak it.
func TestJoinBuildersCloseLeftOnRightFailure(t *testing.T) {
	ops := []plan.OpType{plan.OpNLJoin, plan.OpHashJoin, plan.OpPsiJoin, plan.OpOmegaJoin}
	for _, op := range ops {
		env := &closeTrackEnv{mockEnv: newMockEnv()}
		env.tables["l"] = []types.Tuple{{types.NewInt(1)}}
		// "r" is absent: building the right child fails after the left
		// child's iterator is live.
		n := &plan.Node{
			Op: op,
			Children: []*plan.Node{
				{Op: plan.OpSeqScan, Table: "l"},
				{Op: plan.OpSeqScan, Table: "r"},
			},
		}
		ev := newEvaluator(env, nil, nil)
		if _, err := build(env, ev, n); err == nil {
			t.Fatalf("%s: expected build error for missing right table", op)
		}
		if len(env.tracked) != 1 {
			t.Fatalf("%s: expected exactly one live child scan, got %d", op, len(env.tracked))
		}
		if !env.tracked[0].closed {
			t.Errorf("%s: left child scan leaked when right build failed", op)
		}
	}
}

func TestNLJoinClosePropagatesOuterError(t *testing.T) {
	outerErr := errors.New("outer close failed")
	j := &nlJoinIter{
		outer: &trackIter{TupleIter: &sliceIter{}, closeErr: outerErr},
		inner: asRewindable(nil, &trackIter{TupleIter: &sliceIter{}}),
	}
	if err := j.Close(); !errors.Is(err, outerErr) {
		t.Fatalf("nlJoinIter.Close dropped the outer iterator's error: got %v", err)
	}
}

func TestHashJoinClosePropagatesProbeError(t *testing.T) {
	probeErr := errors.New("probe close failed")
	j := &hashJoinIter{
		probe:    &trackIter{TupleIter: &sliceIter{}, closeErr: probeErr},
		buildSrc: &trackIter{TupleIter: &sliceIter{}},
	}
	if err := j.Close(); !errors.Is(err, probeErr) {
		t.Fatalf("hashJoinIter.Close dropped the probe iterator's error: got %v", err)
	}
}

func TestCursorAllPropagatesCloseError(t *testing.T) {
	closeErr := errors.New("close failed")
	c := &Cursor{it: &trackIter{TupleIter: &sliceIter{}, closeErr: closeErr}}
	if _, err := c.All(); !errors.Is(err, closeErr) {
		t.Fatalf("Cursor.All dropped the close error: got %v", err)
	}
}
