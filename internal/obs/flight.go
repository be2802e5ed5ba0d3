package obs

import (
	"encoding/binary"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Flight is an always-on in-memory flight recorder for request and job
// traces: a fixed-size ring of completed traces plus a top-K slowest
// index, readable at any time (GET /debug/traces, SIGUSR1 dump) so a
// production incident can be triaged after the fact without verbose
// tracing having been enabled in advance. Jobs — a batch clustering
// iteration, a stream consolidation — begin with the sampled flag set,
// so a recorder retains every one of them.
//
// # Retention policy (tail-based sampling)
//
// Every finished trace is classified at Finish time: error traces
// (status >= 500 or transport failures) and slow traces (duration >=
// SlowThreshold) are always retained, traces whose inbound traceparent
// carried the sampled flag are retained (an upstream kept them; holes
// in a distributed trace are worse than ring churn), and the remainder
// is head-sampled at SampleRate by a seeded hash of the trace ID — so
// the keep/drop decision for a given (seed, trace ID) pair is
// deterministic across runs and replicas.
//
// # Concurrency and allocation
//
// Live traces come from a sync.Pool and return to it at Finish; a
// retained trace is copied into its ring slot by one struct assignment
// under that slot's own mutex (lock-light: writers contend only when
// they hash to the same slot, readers only with writers of the slots
// they are copying out). The write path allocates nothing beyond the
// pooled trace record itself — pinned by TestFlightWriteAllocs.
//
// The nil *Flight is a valid no-op: Begin returns a nil *RequestTrace
// (whose methods are no-ops) and every other method returns zero
// values, so servers thread the recorder unconditionally.
type Flight struct {
	ringSize int
	topK     int
	rate     float64
	slow     time.Duration
	seed     uint64
	tracer   *Tracer

	cursor atomic.Uint64
	slots  []flightSlot

	topMu sync.Mutex
	top   []TraceRecord // min-ordered prefix [0:topLen); top[0] is the fastest retained

	pool sync.Pool

	// Self-metrics (nil handles are no-ops).
	started      *Counter
	retained     *Counter
	sampledOut   *Counter
	droppedSpans *Counter
}

// flightSlot is one ring entry. The resident record is reused in place:
// admission copies the finished trace into it under the slot mutex, so
// steady-state ring churn allocates nothing.
type flightSlot struct {
	mu  sync.Mutex
	set bool
	rec TraceRecord
}

// FlightConfig parameterizes NewFlight. The zero value of every field
// but SampleRate picks a production-safe default.
type FlightConfig struct {
	// RingSize is the number of retained traces the ring holds before
	// overwriting the oldest. Default 256.
	RingSize int
	// TopK is the size of the slowest-request index, which survives ring
	// churn. Default 16.
	TopK int
	// SampleRate head-samples fast, successful traces: the fraction
	// retained, clamped to [0, 1]. It is taken literally, so 0 keeps
	// none of them. Slow, error and inbound-sampled traces are always
	// retained regardless.
	SampleRate float64
	// SlowThreshold is the duration at or above which a trace is always
	// retained. Default 250ms.
	SlowThreshold time.Duration
	// Seed keys the head-sampling hash; identical seeds make identical
	// keep/drop decisions for identical trace IDs. Default 1.
	Seed uint64
	// Tracer, when non-nil, additionally receives every retained trace
	// as JSONL span records at Finish time (the -trace-out sink).
	Tracer *Tracer
	// Obs, when non-nil, receives the recorder's own counters
	// (cluseq_flight_*).
	Obs *Registry
}

// NewFlight constructs a flight recorder.
func NewFlight(cfg FlightConfig) *Flight {
	if cfg.RingSize <= 0 {
		cfg.RingSize = 256
	}
	if cfg.TopK <= 0 {
		cfg.TopK = 16
	}
	if cfg.TopK > cfg.RingSize {
		cfg.TopK = cfg.RingSize
	}
	cfg.SampleRate = min(max(cfg.SampleRate, 0), 1)
	if cfg.SlowThreshold <= 0 {
		cfg.SlowThreshold = 250 * time.Millisecond
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	f := &Flight{
		ringSize: cfg.RingSize,
		topK:     cfg.TopK,
		rate:     cfg.SampleRate,
		slow:     cfg.SlowThreshold,
		seed:     cfg.Seed,
		tracer:   cfg.Tracer,
		slots:    make([]flightSlot, cfg.RingSize),
		top:      make([]TraceRecord, 0, cfg.TopK),
	}
	f.pool.New = func() any { return new(RequestTrace) }
	if reg := cfg.Obs; reg != nil {
		f.started = reg.Counter("cluseq_flight_requests_total")
		f.retained = reg.Counter("cluseq_flight_retained_total")
		f.sampledOut = reg.Counter("cluseq_flight_sampled_out_total")
		f.droppedSpans = reg.Counter("cluseq_flight_dropped_spans_total")
		reg.Gauge("cluseq_flight_ring_size").Set(float64(cfg.RingSize))
	}
	return f
}

// Begin checks a pooled trace record out for one request or job. route
// labels it. inbound is the caller's trace context (the zero
// TraceContext when none): its trace ID is adopted so the distributed
// trace stays connected, its span ID becomes the parent link, and its
// sampled flag forces retention. Pair every Begin with exactly one
// Finish.
func (f *Flight) Begin(route string, inbound TraceContext) *RequestTrace {
	if f == nil {
		return nil
	}
	f.started.Inc()
	t := f.pool.Get().(*RequestTrace)
	t.rec = TraceRecord{
		Trace: TraceContext{
			TraceID: inbound.TraceID,
			SpanID:  NewSpanID(),
			Sampled: inbound.Sampled,
		},
		Route: route,
	}
	if t.rec.Trace.TraceID.IsZero() {
		t.rec.Trace.TraceID = NewTraceID()
	}
	t.parent = inbound.SpanID
	t.start = time.Now()
	t.rec.StartUS = t.start.UnixMicro()
	t.next.Store(0)
	return t
}

// Sampled is the pure head-sampling decision for a trace ID under the
// recorder's seed and rate — deterministic, with no dependence on
// timing or prior traffic. Exposed for the determinism contract test.
func (f *Flight) Sampled(id TraceID) bool {
	if f == nil {
		return false
	}
	h := splitmix64(f.seed ^ binary.BigEndian.Uint64(id[0:8]) ^ binary.BigEndian.Uint64(id[8:16]))
	// Compare the hash's top 53 bits against the rate as a fraction of
	// the same range, so rate 1.0 keeps everything and 0 keeps nothing.
	return float64(h>>11) < f.rate*float64(uint64(1)<<53)
}

// splitmix64 is the SplitMix64 finalizer: a cheap, well-mixed hash.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Finish completes the trace: stamps status and duration, applies the
// retention policy, copies a retained trace into the ring (and the
// top-K index, and the JSONL sink when attached), and returns the
// record to the pool. The trace must not be used after Finish; it
// reports whether the trace was retained.
func (f *Flight) Finish(t *RequestTrace, status int) bool {
	if f == nil || t == nil {
		return false
	}
	dur := time.Since(t.start)
	claimed := t.next.Load()
	n := claimed
	if n > MaxTraceSpans {
		n = MaxTraceSpans
		t.rec.Dropped = claimed - MaxTraceSpans
		f.droppedSpans.Add(int64(t.rec.Dropped))
	}
	t.rec.NumSpans = n
	t.rec.Status = status
	t.rec.Error = status == 0 || status >= 500
	t.rec.DurUS = dur.Microseconds()
	t.rec.Parent = t.parent

	keep := t.rec.Trace.Sampled || t.rec.Error || dur >= f.slow || f.Sampled(t.rec.Trace.TraceID)
	if keep {
		t.rec.Trace.Sampled = true
		f.retained.Inc()
		f.admit(&t.rec)
		if f.tracer != nil {
			f.tracer.WriteTraceRecord(&t.rec)
		}
	} else {
		f.sampledOut.Inc()
	}
	f.pool.Put(t)
	return keep
}

// admit copies the finished record into its ring slot and, when slow
// enough, into the top-K index.
func (f *Flight) admit(rec *TraceRecord) {
	i := (f.cursor.Add(1) - 1) % uint64(f.ringSize)
	s := &f.slots[i]
	s.mu.Lock()
	s.rec = *rec // struct copy into the resident record; no allocation
	s.set = true
	s.mu.Unlock()

	f.topMu.Lock()
	switch {
	case len(f.top) < f.topK:
		f.top = append(f.top, *rec)
		for j := len(f.top) - 1; j > 0 && f.top[j].DurUS < f.top[j-1].DurUS; j-- {
			f.top[j], f.top[j-1] = f.top[j-1], f.top[j]
		}
	case rec.DurUS > f.top[0].DurUS:
		f.top[0] = *rec
		// Restore min-order with one insertion pass; K is small.
		for j := 1; j < len(f.top) && f.top[j].DurUS < f.top[j-1].DurUS; j++ {
			f.top[j], f.top[j-1] = f.top[j-1], f.top[j]
		}
	}
	f.topMu.Unlock()
}

// TraceFilter selects traces out of a flight dump.
type TraceFilter struct {
	// Route, when non-empty, keeps only traces of that route label.
	Route string
	// MinDur, when positive, keeps only traces at least this slow.
	MinDur time.Duration
}

func (fl TraceFilter) match(rec *TraceRecord) bool {
	if fl.Route != "" && rec.Route != fl.Route {
		return false
	}
	return fl.MinDur <= 0 || rec.DurUS >= fl.MinDur.Microseconds()
}

// FlightDump is the recorder's readable state: the retained ring
// newest-first plus the slowest-request index, slowest-first.
type FlightDump struct {
	// Recent is the ring's retained traces, newest first.
	Recent []TraceRecord `json:"recent"`
	// Slowest is the top-K index, slowest first; it survives ring churn,
	// so an incident's worst requests remain visible after the ring has
	// turned over.
	Slowest []TraceRecord `json:"slowest"`
}

// Snapshot copies the recorder's current state out under the per-slot
// locks. Safe to call concurrently with writers; the dump is a fully
// independent copy.
func (f *Flight) Snapshot(filter TraceFilter) FlightDump {
	if f == nil {
		return FlightDump{}
	}
	dump := FlightDump{Recent: make([]TraceRecord, 0, f.ringSize)}
	for i := range f.slots {
		s := &f.slots[i]
		s.mu.Lock()
		if s.set && filter.match(&s.rec) {
			dump.Recent = append(dump.Recent, s.rec)
		}
		s.mu.Unlock()
	}
	for i := range dump.Recent {
		dump.Recent[i].seal()
	}
	sort.Slice(dump.Recent, func(a, b int) bool { return dump.Recent[a].StartUS > dump.Recent[b].StartUS })

	f.topMu.Lock()
	for i := range f.top {
		if filter.match(&f.top[i]) {
			dump.Slowest = append(dump.Slowest, f.top[i])
		}
	}
	f.topMu.Unlock()
	for i := range dump.Slowest {
		dump.Slowest[i].seal()
	}
	sort.Slice(dump.Slowest, func(a, b int) bool { return dump.Slowest[a].DurUS > dump.Slowest[b].DurUS })
	return dump
}

// WriteJSONL dumps the recorder's state to the tracer as JSONL: one
// "flight_dump" event, then every trace of the ring and every slowest
// trace the ring no longer holds, as span records. This is the SIGUSR1
// path: an on-demand dump to the -trace-out sink. It returns the number
// of traces written.
func (f *Flight) WriteJSONL(tr *Tracer, filter TraceFilter) int {
	if f == nil || tr == nil {
		return 0
	}
	dump := f.Snapshot(filter)
	tr.write(record{Type: "event", Name: "flight_dump", TSUS: time.Now().UnixMicro(),
		Attrs: map[string]any{"recent": len(dump.Recent), "slowest": len(dump.Slowest)}})
	// A retained record's TraceContext is its trace and span ID (Sampled
	// is set on every one), so it identifies the record across both lists.
	all := append(dump.Recent, dump.Slowest...)
	seen := make(map[TraceContext]bool, len(all))
	for i := range all {
		if rec := &all[i]; !seen[rec.Trace] {
			seen[rec.Trace] = true
			tr.WriteTraceRecord(rec)
		}
	}
	return len(seen)
}

// WriteTraceRecord emits one finished trace as JSONL: a root "request"
// span carrying the trace identity, then one record per child span,
// each tagged with the trace ID so the file can be filtered to one
// request or job with jq.
func (t *Tracer) WriteTraceRecord(rec *TraceRecord) {
	if t == nil || rec == nil {
		return
	}
	id := rec.Trace.TraceID.String()
	root := record{
		Type:    "span",
		Name:    "request",
		StartUS: rec.StartUS,
		DurUS:   rec.DurUS,
		Attrs: map[string]any{
			"trace_id": id,
			"span_id":  rec.Trace.SpanID.String(),
			"route":    rec.Route,
			"status":   rec.Status,
		},
	}
	if !rec.Parent.IsZero() {
		root.Attrs["parent_id"] = rec.Parent.String()
	}
	if rec.Dropped > 0 {
		root.Attrs["dropped_spans"] = rec.Dropped
	}
	t.write(root)
	n := int(rec.NumSpans)
	if n > MaxTraceSpans {
		n = MaxTraceSpans
	}
	for i := 0; i < n; i++ {
		sp := &rec.spansBuf[i]
		t.write(record{
			Type:    "span",
			Name:    sp.Name,
			StartUS: rec.StartUS + sp.StartUS,
			DurUS:   sp.DurUS,
			Attrs: map[string]any{
				"trace_id": id,
				"parent":   sp.Parent,
			},
		})
	}
}
