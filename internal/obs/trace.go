package obs

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"sync"
	"sync/atomic"

	"github.com/mural-db/mural/internal/exec"
)

// traceIDKey carries the wire-propagated trace ID through the context
// chain from the server session into the engine's execution paths.
type traceIDKey struct{}

// WithTraceID attaches a client-generated 8-byte trace ID to the context.
// ID 0 is the reserved "no trace" value and attaches nothing.
func WithTraceID(ctx context.Context, id uint64) context.Context {
	if id == 0 {
		return ctx
	}
	return context.WithValue(ctx, traceIDKey{}, id)
}

// TraceIDFrom extracts the trace ID attached by WithTraceID.
func TraceIDFrom(ctx context.Context) (uint64, bool) {
	id, ok := ctx.Value(traceIDKey{}).(uint64)
	return id, ok && id != 0
}

// Trace export formats.
const (
	// FormatJSONL writes one JSON object per span per line.
	FormatJSONL = "jsonl"
	// FormatChrome writes Chrome trace-event format (the JSON array
	// consumed by chrome://tracing and Perfetto). The array is left
	// unterminated, which those consumers accept by design, so spans can
	// stream without a close step.
	FormatChrome = "chrome"
)

// TraceWriter serializes sampled query span trees to a sink. Sampling is
// systematic (every ⌈1/rate⌉-th eligible query) rather than random so
// tests and benchmarks are deterministic; queries carrying an explicit
// client trace ID bypass sampling entirely — a client that tagged a query
// always gets its trace.
type TraceWriter struct {
	mu     sync.Mutex
	w      io.Writer
	chrome bool
	every  int64
	n      atomic.Int64
	opened bool
}

// NewTraceWriter returns a writer exporting in format (FormatJSONL or
// FormatChrome; the caller validates, anything but FormatChrome writes
// JSONL) sampling rate
// (0 < rate <= 1) of untagged queries. Rate <= 0 disables sampling, so
// only explicitly tagged queries export.
func NewTraceWriter(w io.Writer, format string, rate float64) *TraceWriter {
	t := &TraceWriter{w: w, chrome: format == FormatChrome}
	switch {
	case rate <= 0:
		t.every = 0
	case rate >= 1:
		t.every = 1
	default:
		t.every = int64(1/rate + 0.5)
	}
	return t
}

// Sampled decides whether the next query should collect and export spans.
// forced marks a query carrying a client trace ID.
func (t *TraceWriter) Sampled(forced bool) bool {
	if t == nil {
		return false
	}
	if forced {
		mTraceSampled.Inc()
		return true
	}
	if t.every <= 0 {
		return false
	}
	if t.n.Add(1)%t.every != 0 {
		return false
	}
	mTraceSampled.Inc()
	return true
}

// WriteSpans exports one query's span tree. Spans from concurrent queries
// interleave at whole-tree granularity (one lock hold per query).
func (t *TraceWriter) WriteSpans(spans []exec.Span) error {
	if t == nil || len(spans) == 0 {
		return nil
	}
	buf := make([]byte, 0, 256*len(spans))
	for _, s := range spans {
		if t.chrome {
			buf = appendChromeEvent(buf, s)
		} else {
			buf = appendJSONLSpan(buf, s)
		}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.chrome && !t.opened {
		if _, err := io.WriteString(t.w, "[\n"); err != nil {
			mTraceDropped.Add(int64(len(spans)))
			return err
		}
		t.opened = true
	}
	if _, err := t.w.Write(buf); err != nil {
		mTraceDropped.Add(int64(len(spans)))
		return err
	}
	mTraceSpans.Add(int64(len(spans)))
	return nil
}

func appendJSONLSpan(buf []byte, s exec.Span) []byte {
	buf = fmt.Appendf(buf, `{"trace_id":"%016x","span_id":%d,"parent_id":%d,"kind":`, s.TraceID, s.SpanID, s.ParentID)
	buf = appendJSONString(buf, s.Kind)
	buf = append(buf, `,"name":`...)
	buf = appendJSONString(buf, s.Name)
	buf = fmt.Appendf(buf, `,"start_ns":%d,"dur_ns":%d,"rows":%d,"loops":%d`, s.StartNs, s.DurNs, s.Rows, s.Loops)
	buf = appendOutcome(buf, s)
	return append(buf, "}\n"...)
}

func appendChromeEvent(buf []byte, s exec.Span) []byte {
	// Complete ("X") events; ts/dur are microseconds. The trace ID becomes
	// the tid so one query's spans group into one timeline row set.
	buf = append(buf, `{"name":`...)
	buf = appendJSONString(buf, s.Name)
	buf = append(buf, `,"cat":`...)
	buf = appendJSONString(buf, s.Kind)
	buf = fmt.Appendf(buf, `,"ph":"X","ts":%.3f,"dur":%.3f,"pid":1,"tid":%d,"args":{"trace_id":"%016x","span_id":%d,"parent_id":%d,"rows":%d,"loops":%d`,
		float64(s.StartNs)/1e3, float64(s.DurNs)/1e3,
		s.TraceID%1_000_000, s.TraceID, s.SpanID, s.ParentID, s.Rows, s.Loops)
	buf = appendOutcome(buf, s)
	return append(buf, "}},\n"...)
}

// appendOutcome adds the statement outcome fields a query root span carries.
func appendOutcome(buf []byte, s exec.Span) []byte {
	if s.Kind != "query" {
		return buf
	}
	buf = fmt.Appendf(buf, `,"peak_mem_bytes":%d,"cache_hits":%d,"cache_misses":%d`, s.PeakMem, s.CacheHits, s.CacheMisses)
	if s.Err != "" {
		buf = append(buf, `,"err":`...)
		buf = appendJSONString(buf, s.Err)
	}
	return buf
}

// appendJSONString appends v as a JSON string literal. Statement text and
// error messages are arbitrary bytes, which Go's %q would escape in ways
// JSON does not accept (\x01).
func appendJSONString(buf []byte, v string) []byte {
	b, _ := json.Marshal(v)
	return append(buf, b...)
}
