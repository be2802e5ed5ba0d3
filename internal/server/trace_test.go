package server

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"cluseq/internal/obs"
)

// inboundTraceparent is the W3C example context with the sampled flag
// set, so the request is always retained regardless of head sampling.
const (
	inboundTraceparent = "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01"
	inboundTraceID     = "4bf92f3577b34da6a3ce929d0e0e4736"
	inboundSpanID      = "00f067aa0ba902b7"
)

// getDump fetches and decodes GET /debug/traces.
func getDump(t *testing.T, url, query string) obs.FlightDump {
	t.Helper()
	resp, err := http.Get(url + "/debug/traces" + query)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /debug/traces%s: status %d: %s", query, resp.StatusCode, data)
	}
	var dump obs.FlightDump
	if err := json.Unmarshal(data, &dump); err != nil {
		t.Fatalf("bad dump JSON %s: %v", data, err)
	}
	return dump
}

// TestTraceEndToEnd walks one trace ID through the whole contract: the
// inbound traceparent is adopted, echoed as X-Trace-ID, retained in the
// flight recorder with the handler's spans, and attached to the route
// latency histogram as its exemplar.
func TestTraceEndToEnd(t *testing.T) {
	s, _ := newTestServer(t, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	req, err := http.NewRequest("POST", ts.URL+"/v1/classify",
		strings.NewReader(`{"model":"m","sequence":"abababab"}`))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(TraceparentHeader, inboundTraceparent)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("classify status %d: %s", resp.StatusCode, body)
	}
	if got := resp.Header.Get(TraceIDHeader); got != inboundTraceID {
		t.Fatalf("X-Trace-ID = %q, want the inbound trace ID %q", got, inboundTraceID)
	}

	// The retained trace must carry the same ID, the inbound span as its
	// parent, and the classify span hierarchy.
	dump := getDump(t, ts.URL, "")
	var rec *obs.TraceRecord
	for i := range dump.Recent {
		if dump.Recent[i].TraceID == inboundTraceID {
			rec = &dump.Recent[i]
			break
		}
	}
	if rec == nil {
		t.Fatalf("trace %s not in /debug/traces recent set: %+v", inboundTraceID, dump.Recent)
	}
	if rec.ParentID != inboundSpanID {
		t.Errorf("parent_id = %q, want inbound span %q", rec.ParentID, inboundSpanID)
	}
	if rec.Route != "classify" || rec.Status != http.StatusOK {
		t.Errorf("route/status = %s/%d, want classify/200", rec.Route, rec.Status)
	}
	names := map[string]bool{}
	for _, sp := range rec.Spans {
		names[sp.Name] = true
		if sp.DurUS < 0 {
			t.Errorf("span %s unfinished (dur_us = %d)", sp.Name, sp.DurUS)
		}
	}
	for _, want := range []string{"classify_decode", "registry_get", "classify_scan", "classify_model", "classify_encode"} {
		if !names[want] {
			t.Errorf("span %q missing from retained trace: %v", want, rec.Spans)
		}
	}

	// The classify route's latency histogram carries the trace ID as its
	// exemplar in the Prometheus exposition.
	mresp, err := http.Get(ts.URL + "/metrics?format=prom")
	if err != nil {
		t.Fatal(err)
	}
	prom, _ := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	wantLine := `# EXEMPLAR cluseqd_request_seconds{route="classify"} trace_id="` + inboundTraceID + `"`
	if !strings.Contains(string(prom), wantLine) {
		t.Errorf("prom exposition missing exemplar line %q", wantLine)
	}
}

// TestTraceHeadSamplingDrops checks the other half of the tail policy:
// a fast, successful, unsampled request at sample rate 0 gets a trace ID
// on the wire but is not retained in the flight recorder.
func TestTraceHeadSamplingDrops(t *testing.T) {
	flight := obs.NewFlight(obs.FlightConfig{SampleRate: 0, SlowThreshold: time.Hour})
	s, _ := newTestServer(t, Config{Flight: flight})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, data := postClassify(t, ts.URL, `{"model":"m","sequence":"abababab"}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, data)
	}
	id := resp.Header.Get(TraceIDHeader)
	if len(id) != 32 {
		t.Fatalf("X-Trace-ID = %q, want a 32-hex generated trace ID", id)
	}
	dump := getDump(t, ts.URL, "")
	for _, rec := range dump.Recent {
		if rec.TraceID == id {
			t.Fatalf("sampled-out trace %s retained anyway", id)
		}
	}
}

// TestTraceErrorAlwaysRetained: a 4xx is not an error for tail sampling
// (client's fault), but the handler status is recorded; a forced 5xx is
// always kept. The cheapest server-side 5xx here is ingest with
// streaming disabled... which is a 503 on an untraced-by-sampling path,
// so drive it at the same sample rate 0 as above.
func TestTraceErrorAlwaysRetained(t *testing.T) {
	flight := obs.NewFlight(obs.FlightConfig{SampleRate: 0, SlowThreshold: time.Hour})
	s, _ := newTestServer(t, Config{Flight: flight}) // no Stream: ingest → 503
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, err := http.Post(ts.URL+"/v1/ingest", "application/json", strings.NewReader(`{"sequence":"abab"}`))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("ingest without -stream: status %d, want 503", resp.StatusCode)
	}
	id := resp.Header.Get(TraceIDHeader)
	dump := getDump(t, ts.URL, "")
	found := false
	for _, rec := range dump.Recent {
		if rec.TraceID == id {
			found = true
			if !rec.Error || rec.Status != http.StatusServiceUnavailable {
				t.Errorf("retained error trace: error=%v status=%d, want true/503", rec.Error, rec.Status)
			}
		}
	}
	if !found {
		t.Fatalf("error trace %s not retained", id)
	}
}

// TestDebugTracesFilters exercises the query contract: route filtering,
// min_ms filtering, and rejection of a malformed min_ms.
func TestDebugTracesFilters(t *testing.T) {
	s, _ := newTestServer(t, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	req, _ := http.NewRequest("POST", ts.URL+"/v1/classify",
		strings.NewReader(`{"model":"m","sequence":"abababab"}`))
	req.Header.Set(TraceparentHeader, inboundTraceparent)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()

	if dump := getDump(t, ts.URL, "?route=classify"); len(dump.Recent) == 0 {
		t.Error("?route=classify filtered out the classify trace")
	}
	if dump := getDump(t, ts.URL, "?route=ingest"); len(dump.Recent) != 0 {
		t.Errorf("?route=ingest returned %d classify traces", len(dump.Recent))
	}
	if dump := getDump(t, ts.URL, "?min_ms=3600000"); len(dump.Recent) != 0 {
		t.Errorf("?min_ms=1h returned %d traces", len(dump.Recent))
	}

	bad, err := http.Get(ts.URL + "/debug/traces?min_ms=soon")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, bad.Body)
	bad.Body.Close()
	if bad.StatusCode != http.StatusBadRequest {
		t.Errorf("min_ms=soon: status %d, want 400", bad.StatusCode)
	}
}

// TestUntracedRoutesGetNoTraceID: probes outside /v1/ never enter the
// flight recorder and never advertise a trace ID.
func TestUntracedRoutesGetNoTraceID(t *testing.T) {
	s, _ := newTestServer(t, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	for _, path := range []string{"/healthz", "/readyz", "/metrics", "/debug/traces"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if got := resp.Header.Get(TraceIDHeader); got != "" {
			t.Errorf("%s: unexpected X-Trace-ID %q", path, got)
		}
	}
	if dump := getDump(t, ts.URL, ""); len(dump.Recent) != 0 {
		t.Errorf("probe traffic leaked %d traces into the recorder", len(dump.Recent))
	}
}

// TestTraceConsolidationJoinsIngest: each stream consolidation is a job
// trace on the server's flight recorder, kept at sample rate 0. A pass
// triggered by a traced ingest shares that request's trace ID and hangs
// off its root span; a forced pass starts a trace of its own.
func TestTraceConsolidationJoinsIngest(t *testing.T) {
	s, eng := newStreamServer(t, 4)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	const batch = `{"sequences":["abababab","babababa","abababab","babababa"]}`

	// An unsampled ingest tripping a pass: the request is sampled out,
	// the job is kept.
	resp, _, data := postIngest(t, ts.URL, batch)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest status %d: %s", resp.StatusCode, data)
	}
	plainID := resp.Header.Get(TraceIDHeader)

	// A sampled ingest tripping a pass: the request is kept too, so the
	// parent link to its root span can be checked.
	req, _ := http.NewRequest("POST", ts.URL+"/v1/ingest", strings.NewReader(batch))
	req.Header.Set(TraceparentHeader, inboundTraceparent)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()

	// A pass outside any request.
	postIngest(t, ts.URL, `{"sequence":"abababab"}`)
	eng.ConsolidateNow()

	ingests := getDump(t, ts.URL, "?route=ingest").Recent
	if len(ingests) != 1 || ingests[0].TraceID != inboundTraceID {
		t.Fatalf("retained ingests %+v, want only the sampled one", ingests)
	}
	sampled := ingests[0]
	found := false
	for _, sp := range sampled.Spans {
		found = found || sp.Name == "stream_consolidate"
	}
	if !found {
		t.Errorf("sampled ingest lost its stream_consolidate span: %+v", sampled.Spans)
	}

	jobs := getDump(t, ts.URL, "?route=stream_consolidate").Recent
	if len(jobs) != 3 {
		t.Fatalf("retained %d consolidation jobs, want 3", len(jobs))
	}
	byTrace := map[string]obs.TraceRecord{}
	for _, j := range jobs {
		byTrace[j.TraceID] = j
		if j.Status != http.StatusOK || len(j.Spans) != 5 {
			t.Errorf("job %s: status %d, spans %+v", j.TraceID, j.Status, j.Spans)
		}
		for i, name := range []string{"stream_compile", "stream_merge", "stream_threshold", "stream_compile", "stream_publish"} {
			if i < len(j.Spans) && (j.Spans[i].Name != name || j.Spans[i].Parent != -1 || j.Spans[i].DurUS < 0) {
				t.Errorf("job %s span %d = %+v, want finished %s under the root", j.TraceID, i, j.Spans[i], name)
			}
		}
	}
	if j, ok := byTrace[plainID]; !ok || j.ParentID == "" {
		t.Errorf("pass tripped by ingest %s: %+v, want it in that trace with a parent", plainID, j)
	}
	if j, ok := byTrace[inboundTraceID]; !ok || j.ParentID != sampled.SpanID {
		t.Errorf("pass tripped by the sampled ingest: parent %q, want its root span %q", j.ParentID, sampled.SpanID)
	}
	delete(byTrace, plainID)
	delete(byTrace, inboundTraceID)
	for id, j := range byTrace {
		if j.ParentID != "" {
			t.Errorf("forced pass %s has parent %q, want a trace of its own", id, j.ParentID)
		}
	}
}

// BenchmarkObsOverhead gates the PR 5 contract at the server level: the
// classify hot path with tracing at the default sampling rate must stay
// within 5% of the same path with tracing off entirely. Compare:
//
//	go test ./internal/server/ -run xx -bench ObsOverhead -count 10 | benchstat
func BenchmarkObsOverhead(b *testing.B) {
	body := `{"model":"m","sequences":["abababab","babababa","abababab","babababa"]}`
	bench := func(b *testing.B, s *Server) {
		h := s.Handler()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			req := httptest.NewRequest("POST", "/v1/classify", strings.NewReader(body))
			w := httptest.NewRecorder()
			h.ServeHTTP(w, req)
			if w.Code != http.StatusOK {
				b.Fatalf("status %d: %s", w.Code, w.Body.String())
			}
		}
	}
	b.Run("traced", func(b *testing.B) {
		s, _ := newTestServer(b, Config{}) // default always-on flight recorder
		bench(b, s)
	})
	b.Run("untraced", func(b *testing.B) {
		s, _ := newTestServer(b, Config{})
		s.flight = nil // nil-receiver no-ops: the tracing-off baseline
		bench(b, s)
	})
}
