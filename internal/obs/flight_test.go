package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestRequestTraceNilIsNoOp(t *testing.T) {
	var tr *RequestTrace
	if !tr.TraceID().IsZero() || !tr.Context().TraceID.IsZero() {
		t.Error("nil trace should have zero identity")
	}
	sp := tr.StartSpan("decode")
	sp.End() // must not panic
	child := tr.StartSpanUnder(sp, "inner")
	child.End()
	var f *Flight
	if f.Begin("classify", TraceContext{}) != nil {
		t.Error("nil Flight.Begin should return nil")
	}
	if f.Finish(nil, 200) {
		t.Error("nil Flight.Finish should report not retained")
	}
	if d := f.Snapshot(TraceFilter{}); len(d.Recent) != 0 || len(d.Slowest) != 0 {
		t.Error("nil Flight.Snapshot should be empty")
	}
	if f.Sampled(NewTraceID()) {
		t.Error("nil Flight.Sampled should be false")
	}
}

func TestFlightRetainsAndRecordsSpans(t *testing.T) {
	f := NewFlight(FlightConfig{SampleRate: 1}) // keep everything
	inbound, _ := ParseTraceparent("00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-00")
	tr := f.Begin("classify", inbound)
	if got := tr.TraceID().String(); got != "4bf92f3577b34da6a3ce929d0e0e4736" {
		t.Fatalf("inbound trace ID not adopted: %s", got)
	}
	dec := tr.StartSpan("classify_decode")
	dec.End()
	scan := tr.StartSpan("classify_scan")
	leaf := tr.StartSpanUnder(scan, "classify_model")
	leaf.End()
	scan.End()
	if !f.Finish(tr, 200) {
		t.Fatal("trace not retained at SampleRate=1")
	}

	dump := f.Snapshot(TraceFilter{})
	if len(dump.Recent) != 1 {
		t.Fatalf("ring holds %d traces, want 1", len(dump.Recent))
	}
	rec := dump.Recent[0]
	if rec.Route != "classify" || rec.Status != 200 || rec.Error {
		t.Errorf("record = %+v", rec)
	}
	if rec.TraceID != "4bf92f3577b34da6a3ce929d0e0e4736" {
		t.Errorf("trace ID = %s", rec.TraceID)
	}
	if rec.ParentID != "00f067aa0ba902b7" {
		t.Errorf("parent ID = %q, want inbound span", rec.ParentID)
	}
	if len(rec.Spans) != 3 {
		t.Fatalf("got %d spans, want 3", len(rec.Spans))
	}
	byName := map[string]SpanRec{}
	for _, sp := range rec.Spans {
		if sp.DurUS < 0 {
			t.Errorf("span %s left unfinished", sp.Name)
		}
		byName[sp.Name] = sp
	}
	if byName["classify_decode"].Parent != -1 || byName["classify_scan"].Parent != -1 {
		t.Error("top-level spans should hang off the root (-1)")
	}
	if got := rec.Spans[byName["classify_model"].Parent].Name; got != "classify_scan" {
		t.Errorf("classify_model's parent is %s, want classify_scan", got)
	}
}

// TestFlightTailRetention pins the retention policy at sample rate 0:
// slow, error and inbound-sampled traces are kept, and no fast,
// successful one is.
func TestFlightTailRetention(t *testing.T) {
	f := NewFlight(FlightConfig{SampleRate: 0, SlowThreshold: time.Nanosecond})
	// Slow trace: always kept (SlowThreshold is one nanosecond here).
	tr := f.Begin("classify", TraceContext{})
	time.Sleep(time.Millisecond)
	if !f.Finish(tr, 200) {
		t.Error("slow trace dropped")
	}

	fast := NewFlight(FlightConfig{SampleRate: 0, SlowThreshold: time.Hour})
	// Error trace: always kept even when fast and sampled out.
	if !fast.Finish(fast.Begin("classify", TraceContext{}), 500) {
		t.Error("error trace dropped")
	}
	// Inbound sampled flag: always kept.
	inbound, _ := ParseTraceparent("00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01")
	if !fast.Finish(fast.Begin("classify", inbound), 200) {
		t.Error("upstream-sampled trace dropped")
	}
	// Fast, successful, unsampled: never kept at rate 0.
	kept := 0
	for i := 0; i < 200; i++ {
		if fast.Finish(fast.Begin("classify", TraceContext{}), 200) {
			kept++
		}
	}
	if kept > 0 {
		t.Errorf("%d/200 fast traces kept at rate 0", kept)
	}
}

// TestFlightSampleRateIsLiteral: the rate is clamped to [0, 1] and
// otherwise taken as given — 0 (or below) samples no trace ID in, 1 (or
// above) every one.
func TestFlightSampleRateIsLiteral(t *testing.T) {
	for _, tc := range []struct {
		rate float64
		want bool
	}{{0, false}, {-0.5, false}, {1, true}, {7, true}} {
		f := NewFlight(FlightConfig{SampleRate: tc.rate})
		for i := 0; i < 10000; i++ {
			if id := NewTraceID(); f.Sampled(id) != tc.want {
				t.Fatalf("rate %v: Sampled(%s) = %v, want %v", tc.rate, id, !tc.want, tc.want)
			}
		}
	}
}

// TestFlightSamplerDeterminism pins the tail-sampling contract: the
// keep/drop decision is a pure function of (seed, trace ID), identical
// across recorder instances and runs, and seed changes re-shuffle it.
func TestFlightSamplerDeterminism(t *testing.T) {
	a := NewFlight(FlightConfig{SampleRate: 0.25, Seed: 42})
	b := NewFlight(FlightConfig{SampleRate: 0.25, Seed: 42})
	c := NewFlight(FlightConfig{SampleRate: 0.25, Seed: 43})
	ids := make([]TraceID, 4096)
	for i := range ids {
		ids[i] = NewTraceID()
	}
	kept, diff := 0, 0
	for _, id := range ids {
		ka, kb, kc := a.Sampled(id), b.Sampled(id), c.Sampled(id)
		if ka != kb {
			t.Fatalf("same seed disagrees on %s", id)
		}
		// Re-asking the same instance must be stable too.
		if a.Sampled(id) != ka {
			t.Fatalf("sampler not idempotent for %s", id)
		}
		if ka {
			kept++
		}
		if ka != kc {
			diff++
		}
	}
	// The keep fraction should track the configured rate.
	if got := float64(kept) / float64(len(ids)); got < 0.20 || got > 0.30 {
		t.Errorf("keep fraction %.3f, want ~0.25", got)
	}
	if diff == 0 {
		t.Error("changing the seed changed no decisions")
	}
}

func TestFlightSpanOverflowCountsDropped(t *testing.T) {
	f := NewFlight(FlightConfig{SampleRate: 1})
	tr := f.Begin("classify", TraceContext{})
	for i := 0; i < MaxTraceSpans+7; i++ {
		tr.StartSpan("classify_model").End()
	}
	f.Finish(tr, 200)
	rec := f.Snapshot(TraceFilter{}).Recent[0]
	if len(rec.Spans) != MaxTraceSpans {
		t.Errorf("got %d spans, want cap %d", len(rec.Spans), MaxTraceSpans)
	}
	if rec.Dropped != 7 {
		t.Errorf("dropped = %d, want 7", rec.Dropped)
	}
}

func TestFlightSnapshotFilters(t *testing.T) {
	f := NewFlight(FlightConfig{SampleRate: 1, RingSize: 32})
	for i := 0; i < 8; i++ {
		route := "classify"
		if i%2 == 0 {
			route = "ingest"
		}
		f.Finish(f.Begin(route, TraceContext{}), 200)
	}
	if got := len(f.Snapshot(TraceFilter{Route: "ingest"}).Recent); got != 4 {
		t.Errorf("route filter kept %d, want 4", got)
	}
	if got := len(f.Snapshot(TraceFilter{MinDur: time.Hour}).Recent); got != 0 {
		t.Errorf("min-duration filter kept %d, want 0", got)
	}
}

func TestFlightRingOverwritesOldestAndTopKSurvives(t *testing.T) {
	f := NewFlight(FlightConfig{SampleRate: 1, RingSize: 4, TopK: 2, SlowThreshold: time.Hour})
	slow := f.Begin("classify", TraceContext{})
	time.Sleep(2 * time.Millisecond)
	f.Finish(slow, 200)
	dump := f.Snapshot(TraceFilter{})
	wantID := dump.Recent[0].TraceID
	// Churn the ring well past its size with fast traces.
	for i := 0; i < 16; i++ {
		f.Finish(f.Begin("classify", TraceContext{}), 200)
	}
	dump = f.Snapshot(TraceFilter{})
	if len(dump.Recent) != 4 {
		t.Fatalf("ring holds %d, want 4", len(dump.Recent))
	}
	for _, r := range dump.Recent {
		if r.TraceID == wantID {
			t.Error("slow trace should have been overwritten in the ring")
		}
	}
	if len(dump.Slowest) == 0 || dump.Slowest[0].TraceID != wantID {
		t.Error("slowest trace lost from the top-K index after ring churn")
	}
}

// TestFlightHammer is the -race gate for the ring: many writers doing
// Begin/span/Finish concurrently with readers snapshotting, all slots
// shared. Run with -race in CI; correctness assertions are minimal —
// the point is the race detector.
func TestFlightHammer(t *testing.T) {
	f := NewFlight(FlightConfig{SampleRate: 1, RingSize: 8, TopK: 4})
	const writers, readers, iters = 8, 4, 300
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				tr := f.Begin("classify", TraceContext{})
				sp := tr.StartSpan("classify_scan")
				// Concurrent span writers inside one trace, like the
				// batch fan-out pool.
				var inner sync.WaitGroup
				for g := 0; g < 3; g++ {
					inner.Add(1)
					go func() {
						defer inner.Done()
						tr.StartSpanUnder(sp, "classify_model").End()
					}()
				}
				inner.Wait()
				sp.End()
				status := 200
				if i%7 == 0 {
					status = 500
				}
				f.Finish(tr, status)
			}
		}(w)
	}
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				dump := f.Snapshot(TraceFilter{})
				for _, rec := range dump.Recent {
					if rec.Route != "classify" {
						t.Errorf("torn record: route %q", rec.Route)
						return
					}
					if int32(len(rec.Spans)) != rec.NumSpans {
						t.Errorf("torn record: %d spans, NumSpans %d", len(rec.Spans), rec.NumSpans)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}

// TestFlightWriteAllocs pins the acceptance gate: the flight-recorder
// write path (Begin → spans → Finish with ring admission) allocates
// nothing per request beyond the pooled trace record, which the pool
// amortizes to zero in steady state.
func TestFlightWriteAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool bypasses its cache under -race, inflating alloc counts")
	}
	f := NewFlight(FlightConfig{SampleRate: 1, RingSize: 8, TopK: 4})
	// Warm the pool and fill the top-K index.
	for i := 0; i < 32; i++ {
		f.Finish(f.Begin("classify", TraceContext{}), 200)
	}
	avg := testing.AllocsPerRun(200, func() {
		tr := f.Begin("classify", TraceContext{})
		sp := tr.StartSpan("classify_scan")
		tr.StartSpanUnder(sp, "classify_model").End()
		sp.End()
		f.Finish(tr, 200)
	})
	if avg > 0 {
		t.Errorf("flight write path allocates %.1f objects/request, want 0", avg)
	}
}

// TestFlightWriteJSONLKeepsSlowest: the SIGUSR1 dump carries the
// slowest index as well as the ring, so a slow trace the ring has
// churned out still reaches the sink — once, however many of the
// slowest are also still in the ring.
func TestFlightWriteJSONLKeepsSlowest(t *testing.T) {
	f := NewFlight(FlightConfig{SampleRate: 1, RingSize: 4, TopK: 2, SlowThreshold: time.Hour})
	slow := f.Begin("classify", TraceContext{})
	slowID := slow.TraceID().String()
	time.Sleep(2 * time.Millisecond)
	f.Finish(slow, 200)
	for i := 0; i < 16; i++ {
		f.Finish(f.Begin("classify", TraceContext{}), 200)
	}
	want := map[string]bool{}
	dump := f.Snapshot(TraceFilter{})
	for _, rec := range append(dump.Recent, dump.Slowest...) {
		want[rec.TraceID] = true
	}
	if !want[slowID] || len(want) < 5 {
		t.Fatalf("recorder lost traces: %d distinct, slow one kept %v", len(want), want[slowID])
	}
	var buf bytes.Buffer
	n := f.WriteJSONL(NewTracer(&buf), TraceFilter{})
	roots := map[string]int{}
	for _, ln := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		var rec struct {
			Name  string `json:"name"`
			Attrs struct {
				TraceID string `json:"trace_id"`
			} `json:"attrs"`
		}
		if err := json.Unmarshal([]byte(ln), &rec); err != nil {
			t.Fatal(err)
		}
		if rec.Name == "request" {
			roots[rec.Attrs.TraceID]++
		}
	}
	if roots[slowID] != 1 {
		t.Errorf("slow trace %s dumped %d times, want 1", slowID, roots[slowID])
	}
	for id, c := range roots {
		if c != 1 || !want[id] {
			t.Errorf("trace %s dumped %d times, want once (in recorder: %v)", id, c, want[id])
		}
	}
	if n != len(want) || len(roots) != len(want) {
		t.Errorf("dumped %d traces (%d distinct), want the %d distinct of ring and slowest index", n, len(roots), len(want))
	}
}

func TestFlightWriteJSONL(t *testing.T) {
	var buf bytes.Buffer
	f := NewFlight(FlightConfig{SampleRate: 1})
	tr := f.Begin("classify", TraceContext{})
	tr.StartSpan("classify_decode").End()
	f.Finish(tr, 200)
	n := f.WriteJSONL(NewTracer(&buf), TraceFilter{})
	if n != 1 {
		t.Fatalf("dumped %d traces, want 1", n)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	// flight_dump event + request root + one child span.
	if len(lines) != 3 {
		t.Fatalf("got %d JSONL lines, want 3:\n%s", len(lines), buf.String())
	}
	var traceID string
	for i, ln := range lines {
		var rec map[string]any
		if err := json.Unmarshal([]byte(ln), &rec); err != nil {
			t.Fatalf("line %d not JSON: %v", i, err)
		}
		if attrs, ok := rec["attrs"].(map[string]any); ok {
			if id, ok := attrs["trace_id"].(string); ok {
				if traceID == "" {
					traceID = id
				} else if id != traceID {
					t.Errorf("line %d carries trace %s, want %s", i, id, traceID)
				}
			}
		}
	}
	if traceID == "" {
		t.Fatal("no trace_id attr in JSONL output")
	}
}

func TestHistogramExemplar(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("cluseq_test_seconds", 0, 5, 100, "route", "classify")
	id := NewTraceID()
	h.ObserveExemplar(0.25, id)
	h.ObserveExemplar(0.5, TraceID{}) // zero ID must not clobber
	var found *Metric
	for _, m := range reg.Snapshot() {
		if m.Name == "cluseq_test_seconds" {
			found = &m
			break
		}
	}
	if found == nil || found.Exemplar == nil {
		t.Fatal("snapshot missing exemplar")
	}
	if found.Exemplar.TraceID != id.String() || found.Exemplar.Value != 0.25 {
		t.Errorf("exemplar = %+v", found.Exemplar)
	}
	if found.Count != 2 {
		t.Errorf("count = %d, want 2 (ObserveExemplar must still observe)", found.Count)
	}
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	want := `# EXEMPLAR cluseq_test_seconds{route="classify"} trace_id="` + id.String() + `" value=0.25`
	if !strings.Contains(buf.String(), want) {
		t.Errorf("exposition missing exemplar comment %q in:\n%s", want, buf.String())
	}
	// Exemplar lines must not break the exposition format: every
	// non-comment line still parses as name{labels} value.
	for _, ln := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		if strings.HasPrefix(ln, "#") {
			continue
		}
		if !strings.Contains(ln, " ") {
			t.Errorf("malformed sample line %q", ln)
		}
	}
	var nilH *Histogram
	nilH.ObserveExemplar(1, id) // no-op, must not panic
}

func BenchmarkFlightWrite(b *testing.B) {
	f := NewFlight(FlightConfig{SampleRate: 0.01})
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			tr := f.Begin("classify", TraceContext{})
			sp := tr.StartSpan("classify_scan")
			tr.StartSpanUnder(sp, "classify_model").End()
			sp.End()
			f.Finish(tr, 200)
		}
	})
}
