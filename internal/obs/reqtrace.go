package obs

import (
	"context"
	"sync/atomic"
	"time"
)

// MaxTraceSpans bounds the spans one request trace can hold. The array
// is inline in the pooled record, so the bound is what makes a trace a
// fixed-size, zero-allocation object; spans past the cap are counted in
// Dropped rather than recorded (a batch request that would emit
// thousands of per-item spans degrades gracefully).
const MaxTraceSpans = 48

// SpanRec is one completed span inside a request trace. Offsets are
// relative to the trace's start, so a record is self-contained and
// meaningful after the fact without the original timestamps.
type SpanRec struct {
	// Name is the span's literal name (see DESIGN.md §15 for the
	// taxonomy). Must be a compile-time constant by convention — the
	// record only holds the string header, never a copy.
	Name string `json:"name"`
	// Parent is the index of the enclosing span in the trace's span
	// list, or -1 when the span hangs directly off the request root.
	Parent int32 `json:"parent"`
	// StartUS is the span's start offset from the request start, in
	// microseconds; DurUS its duration. DurUS is -1 while the span is
	// unfinished (a Start without End leaves this marker in the dump).
	StartUS int64 `json:"start_us"`
	DurUS   int64 `json:"dur_us"`
}

// TraceRecord is the plain, copyable snapshot of one finished request
// or job trace — the shape the flight recorder stores and /debug/traces
// and the JSONL sink emit. Unlike the live RequestTrace it contains no
// atomics, so ring slots copy it with a single struct assignment.
type TraceRecord struct {
	// Trace carries this request's trace ID and the server's root span
	// ID; Sampled reports whether the trace was retained.
	Trace TraceContext `json:"-"`
	// Parent is the inbound caller's span ID (zero when the trace
	// started in this process); ParentID its hex rendering, filled by
	// seal so the record stays allocation-free on the request path.
	Parent SpanID `json:"-"`
	// TraceID/SpanID/ParentID are the hex renderings for JSON output.
	TraceID  string `json:"trace_id"`
	SpanID   string `json:"span_id"`
	ParentID string `json:"parent_id,omitempty"`
	// Route is the server's stable route label, or the job's kind
	// (cluster_iteration, cluster_refine, stream_consolidate); Status
	// the HTTP status, 200 for a finished job.
	Route  string `json:"route"`
	Status int    `json:"status"`
	// Error marks a trace the sampler classified as failed (5xx or
	// transport-level problems); such traces are always retained.
	Error bool `json:"error,omitempty"`
	// StartUS is the request's wall-clock start (Unix microseconds);
	// DurUS its end-to-end duration.
	StartUS int64 `json:"start_us"`
	DurUS   int64 `json:"dur_us"`
	// Dropped counts spans discarded past MaxTraceSpans.
	Dropped int32 `json:"dropped_spans,omitempty"`
	// NumSpans is the live prefix of Spans.
	NumSpans int32     `json:"-"`
	Spans    []SpanRec `json:"spans"`
	spansBuf [MaxTraceSpans]SpanRec
}

// seal fixes the Spans slice to the record's own inline buffer and
// fills the derived hex fields. Must be called after every copy into a
// new location (struct assignment aliases the source's buffer).
func (r *TraceRecord) seal() {
	n := r.NumSpans
	if n < 0 {
		n = 0
	}
	if n > MaxTraceSpans {
		n = MaxTraceSpans
	}
	r.Spans = r.spansBuf[:n]
	r.TraceID = r.Trace.TraceID.String()
	r.SpanID = r.Trace.SpanID.String()
	if !r.Parent.IsZero() {
		r.ParentID = r.Parent.String()
	}
}

// RequestTrace is the live trace of one request or job being recorded,
// and the only way to open a span: a pooled fixed-size record plus an
// atomic span cursor, so concurrent pool workers can open spans without
// a lock (each claims a distinct slot). The nil *RequestTrace is a
// valid no-op — every method returns immediately — so handlers thread
// tracing unconditionally and an untraced server pays one nil check per
// span.
type RequestTrace struct {
	rec    TraceRecord
	parent SpanID // inbound caller span (zero when the trace starts here)
	start  time.Time
	next   atomic.Int32 // span slots claimed (may exceed MaxTraceSpans)
}

// Context returns the trace's propagation context (zero for nil).
func (t *RequestTrace) Context() TraceContext {
	if t == nil {
		return TraceContext{}
	}
	return t.rec.Trace
}

// TraceID returns the trace's ID (zero for nil).
func (t *RequestTrace) TraceID() TraceID {
	if t == nil {
		return TraceID{}
	}
	return t.rec.Trace.TraceID
}

// SpanHandle is one open span. The zero handle is a valid no-op, so
// span plumbing needs no nil checks. Handles are values: opening and
// closing a span allocates nothing.
type SpanHandle struct {
	t     *RequestTrace
	idx   int32
	start time.Time
}

// RootSpan is the handle representing the request root, for use as the
// parent argument of StartSpanUnder.
var RootSpan = SpanHandle{idx: -1}

// StartSpan opens a span hanging directly off the request root.
func (t *RequestTrace) StartSpan(name string) SpanHandle {
	return t.StartSpanUnder(RootSpan, name)
}

// StartSpanUnder opens a span as a child of parent. Safe to call from
// concurrent goroutines (the batch fan-out workers): each call claims
// its own slot with one atomic increment. Past MaxTraceSpans the span
// is counted as dropped and the returned handle is a no-op.
func (t *RequestTrace) StartSpanUnder(parent SpanHandle, name string) SpanHandle {
	if t == nil {
		return SpanHandle{}
	}
	idx := t.next.Add(1) - 1
	if idx >= MaxTraceSpans {
		return SpanHandle{} // dropped; Finish reconciles the counter
	}
	now := time.Now()
	t.rec.spansBuf[idx] = SpanRec{
		Name:    name,
		Parent:  parent.idx,
		StartUS: now.Sub(t.start).Microseconds(),
		DurUS:   -1, // marks an unfinished span in dumps
	}
	return SpanHandle{t: t, idx: idx, start: now}
}

// End closes the span. Calling End on the zero handle (nil trace or a
// dropped span) is a no-op; calling it twice overwrites the duration
// with the later value.
func (h SpanHandle) End() {
	if h.t == nil {
		return
	}
	h.t.rec.spansBuf[h.idx].DurUS = time.Since(h.start).Microseconds()
}

// traceCtxKey is the context key for the request's live trace.
type traceCtxKey struct{}

// ContextWithTrace returns a context carrying the trace. A nil trace
// returns ctx unchanged.
func ContextWithTrace(ctx context.Context, t *RequestTrace) context.Context {
	if t == nil {
		return ctx
	}
	return context.WithValue(ctx, traceCtxKey{}, t)
}

// TraceFromContext returns the context's live request trace, or nil
// outside a traced request. All RequestTrace methods accept the nil
// result, so callers never branch.
func TraceFromContext(ctx context.Context) *RequestTrace {
	if ctx == nil {
		return nil
	}
	t, _ := ctx.Value(traceCtxKey{}).(*RequestTrace)
	return t
}
