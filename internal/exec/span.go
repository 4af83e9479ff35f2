package exec

import (
	"github.com/mural-db/mural/internal/plan"
)

// Span is one node of an exported query trace: the query root, the
// parse+plan phase, or one executed plan operator, linked to its parent by
// span ID. Span IDs are assigned depth-first within one trace, so an
// exporter can rebuild the tree without engine types.
type Span struct {
	TraceID  uint64
	SpanID   int
	ParentID int
	// Kind is "query", "plan" or "operator".
	Kind string
	// Name is the operator description ("SeqScan names"), the phase name,
	// or the statement text for the query root.
	Name string
	// StartNs is the span's start in Unix nanoseconds. Operator spans
	// inherit the executor phase's start: the collector measures
	// cumulative time per operator, not per-call start offsets.
	StartNs int64
	// DurNs is the span's cumulative wall time.
	DurNs int64
	Rows  int64
	Loops int64
	// PeakMem, CacheHits, CacheMisses and Err describe the statement's
	// outcome on the query root span: peak governed memory in bytes, shared
	// cache hits and misses during the statement, and the error text (empty
	// on success).
	PeakMem     int64
	CacheHits   int64
	CacheMisses int64
	Err         string
}

// BuildSpans flattens the measured plan tree into operator spans with
// parent edges, depth-first. IDs are assigned from firstID; the tree's
// root operator hangs off parentID. Requires a timed collector; a nil or
// counts-only collector yields nil.
func (es *ExecStats) BuildSpans(root *plan.Node, traceID uint64, startNs int64, firstID, parentID int) []Span {
	if es == nil || !es.timed || root == nil {
		return nil
	}
	var out []Span
	next := firstID
	var walk func(n *plan.Node, parent int)
	walk = func(n *plan.Node, parent int) {
		id := parent
		if st, ok := es.byNode[n]; ok {
			id = next
			next++
			name := n.Op.String()
			if n.Table != "" {
				name += " " + n.Table
			}
			out = append(out, Span{
				TraceID:  traceID,
				SpanID:   id,
				ParentID: parent,
				Kind:     "operator",
				Name:     name,
				StartNs:  startNs,
				DurNs:    int64(st.Elapsed),
				Rows:     st.Rows,
				Loops:    st.Loops,
			})
		}
		for _, c := range n.Children {
			walk(c, id)
		}
	}
	walk(root, parentID)
	return out
}
