package obs

import (
	"encoding/json"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"
)

// decodeJSONL parses every line of a trace buffer, failing the test on
// any malformed record.
func decodeJSONL(t *testing.T, out string) []map[string]any {
	t.Helper()
	var recs []map[string]any
	for i, line := range strings.Split(strings.TrimRight(out, "\n"), "\n") {
		var rec map[string]any
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("line %d is not valid JSON: %v\n%s", i+1, err, line)
		}
		recs = append(recs, rec)
	}
	return recs
}

func TestTracerSpansEventsMetrics(t *testing.T) {
	var sb strings.Builder
	tr := NewTracer(&sb)
	f := NewFlight(FlightConfig{SampleRate: 1, Tracer: tr})

	job := f.Begin("cluster_iteration", TraceContext{Sampled: true})
	id := job.TraceID().String()
	sp := job.StartSpan("score")
	time.Sleep(time.Millisecond)
	sp.End()
	f.Finish(job, 200)
	f.WriteJSONL(tr, TraceFilter{})

	reg := NewRegistry()
	reg.Counter("c_total").Add(7)
	reg.Gauge("g").Set(1.5)
	h := reg.Histogram("h_seconds", 0, 1, 10)
	h.Observe(0.3)
	tr.EmitMetrics(reg)

	if err := tr.Err(); err != nil {
		t.Fatal(err)
	}
	recs := decodeJSONL(t, sb.String())
	// Finish writes root + span, the dump an event and the trace again.
	if len(recs) != 6 {
		t.Fatalf("got %d records, want 6:\n%s", len(recs), sb.String())
	}

	root, span := recs[0], recs[1]
	if root["type"] != "span" || root["name"] != "request" {
		t.Fatalf("root record = %v", root)
	}
	rattrs := root["attrs"].(map[string]any)
	if rattrs["route"] != "cluster_iteration" || rattrs["status"] != 200.0 || rattrs["trace_id"] != id {
		t.Fatalf("root attrs = %v", rattrs)
	}
	if span["type"] != "span" || span["name"] != "score" {
		t.Fatalf("span record = %v", span)
	}
	if span["start_us"].(float64) < root["start_us"].(float64) {
		t.Fatal("span starts before its trace")
	}
	if span["dur_us"].(float64) < 1000 {
		t.Fatalf("dur_us = %v, want >= 1000 (slept 1ms)", span["dur_us"])
	}
	attrs := span["attrs"].(map[string]any)
	if attrs["trace_id"] != rattrs["trace_id"] || attrs["parent"] != -1.0 {
		t.Fatalf("span attrs = %v", attrs)
	}

	event := recs[2]
	if event["type"] != "event" || event["name"] != "flight_dump" {
		t.Fatalf("event record = %v", event)
	}
	if ea := event["attrs"].(map[string]any); ea["recent"] != 1.0 || ea["slowest"] != 1.0 {
		t.Fatalf("event attrs = %v", ea)
	}

	met := recs[5]
	if met["type"] != "metrics" {
		t.Fatalf("metrics record = %v", met)
	}
	series := met["metrics"].(map[string]any)
	if series["c_total"] != 7.0 || series["g"] != 1.5 {
		t.Fatalf("metrics payload = %v", series)
	}
	hist := series["h_seconds"].(map[string]any)
	if hist["count"] != 1.0 || hist["sum"] != 0.3 {
		t.Fatalf("histogram payload = %v", hist)
	}
	for _, q := range []string{"p50", "p95", "p99"} {
		if _, ok := hist[q]; !ok {
			t.Fatalf("histogram payload missing %s: %v", q, hist)
		}
	}
}

type failWriter struct{ n int }

func (w *failWriter) Write(p []byte) (int, error) {
	w.n++
	return 0, errors.New("sink broken")
}

func TestTracerErrLatches(t *testing.T) {
	w := &failWriter{}
	tr := NewTracer(w)
	tr.EmitMetrics(NewRegistry())
	if tr.Err() == nil {
		t.Fatal("write failure must surface via Err")
	}
	tr.EmitMetrics(NewRegistry())
	f := NewFlight(FlightConfig{SampleRate: 1, Tracer: tr})
	f.Finish(f.Begin("classify", TraceContext{}), 200)
	if w.n != 1 {
		t.Fatalf("records after a failed write must be dropped, wrote %d times", w.n)
	}
}

func TestTracerConcurrent(t *testing.T) {
	var sb safeBuilder
	tr := NewTracer(&sb)
	f := NewFlight(FlightConfig{SampleRate: 1, Tracer: tr})
	done := make(chan struct{})
	for g := 0; g < 4; g++ {
		go func() {
			defer func() { done <- struct{}{} }()
			for i := 0; i < 200; i++ {
				job := f.Begin("cluster_iteration", TraceContext{})
				job.StartSpan("generate").End()
				f.Finish(job, 200)
			}
		}()
	}
	for g := 0; g < 4; g++ {
		<-done
	}
	if err := tr.Err(); err != nil {
		t.Fatal(err)
	}
	// One root record and one span record per trace.
	recs := decodeJSONL(t, sb.String())
	if len(recs) != 1600 {
		t.Fatalf("got %d records, want 1600", len(recs))
	}
}

// safeBuilder is a mutex-guarded strings.Builder; the tracer serializes
// its own writes, but the test reads the buffer afterwards and the race
// detector wants the happens-before edge explicit.
type safeBuilder struct {
	mu sync.Mutex
	b  strings.Builder
}

func (s *safeBuilder) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *safeBuilder) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}
