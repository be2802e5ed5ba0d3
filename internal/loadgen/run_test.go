package loadgen

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"cluseq/internal/obs"
)

// stubServer mimics cluseqd's surface closely enough for the runner:
// /v1/classify answers index-aligned results, /v1/models/reload answers
// an empty report, /metrics serves cluseqd's request and sequence
// counters as Prometheus text. It counts
// what it saw so the test can cross-check the runner's bookkeeping.
type stubServer struct {
	mu        sync.Mutex
	singles   int64
	batches   int64
	reloads   int64
	ingests   int64
	sequences int64
}

func (s *stubServer) handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/classify", func(w http.ResponseWriter, r *http.Request) {
		var req struct {
			Model     string   `json:"model"`
			Sequence  string   `json:"sequence"`
			Sequences []string `json:"sequences"`
		}
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		n := len(req.Sequences)
		s.mu.Lock()
		if req.Sequence != "" {
			s.singles++
			n = 1
		} else {
			s.batches++
		}
		s.sequences += int64(n)
		s.mu.Unlock()
		results := make([]map[string]any, n)
		for i := range results {
			results[i] = map[string]any{"cluster": 0, "similarity": 1.2}
		}
		json.NewEncoder(w).Encode(map[string]any{"model": req.Model, "results": results})
	})
	mux.HandleFunc("POST /v1/ingest", func(w http.ResponseWriter, r *http.Request) {
		var req struct {
			Sequence  string   `json:"sequence"`
			Sequences []string `json:"sequences"`
		}
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		n := len(req.Sequences)
		if req.Sequence != "" {
			n = 1
		}
		s.mu.Lock()
		s.ingests++
		s.mu.Unlock()
		results := make([]map[string]any, n)
		for i := range results {
			results[i] = map[string]any{"status": "accepted", "cluster": 0, "similarity": 1.2}
		}
		json.NewEncoder(w).Encode(map[string]any{"results": results, "accepted": n, "clusters": 1})
	})
	mux.HandleFunc("POST /v1/models/reload", func(w http.ResponseWriter, r *http.Request) {
		s.mu.Lock()
		s.reloads++
		s.mu.Unlock()
		w.Write([]byte(`{}`))
	})
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		s.mu.Lock()
		defer s.mu.Unlock()
		reg := obs.NewRegistry()
		reg.Counter("cluseqd_requests_total", "route", "classify").Add(s.singles + s.batches)
		reg.Counter("cluseqd_requests_total", "route", "reload").Add(s.reloads)
		reg.Counter("cluseqd_sequences_total").Add(s.sequences)
		reg.WritePrometheus(w)
	})
	return mux
}

// e2eScenario is quick enough for -race CI but busy enough to exercise
// batches and reloads.
func e2eScenario() *Scenario {
	return &Scenario{
		Name:            "stub-e2e",
		Seed:            7,
		Model:           "m",
		Alphabet:        "abcd",
		SeqLen:          8,
		SeqPool:         16,
		RatePerSec:      400,
		DurationSec:     1,
		BatchFraction:   0.3,
		BatchSizes:      []BatchSize{{Size: 4, Weight: 1}, {Size: 16, Weight: 1}},
		ReloadPeriodSec: 0.25,
		MaxInflight:     16,
	}
}

// TestRunAgainstStub is the library-level end-to-end: replay a scenario
// against an httptest stub and assert the runner's histograms account
// for every request sent — client-side totals, per-route split, and the
// stub's own counts all agree.
func TestRunAgainstStub(t *testing.T) {
	stub := &stubServer{}
	ts := httptest.NewServer(stub.handler())
	defer ts.Close()

	sc := e2eScenario()
	r := &Runner{BaseURL: ts.URL, Validate: true, ScrapeTarget: true, Logf: t.Logf}
	res, err := r.Run(sc)
	if err != nil {
		t.Fatal(err)
	}

	schedule := sc.Schedule()
	if res.RequestsSent != len(schedule) {
		t.Fatalf("RequestsSent = %d, want schedule length %d", res.RequestsSent, len(schedule))
	}
	// Histogram totals equal requests sent: every offered request got a
	// response (the stub can't fail) and produced a latency sample.
	if res.Overall.Requests != int64(len(schedule)) {
		t.Fatalf("overall histogram holds %d samples, want %d (one per request sent)",
			res.Overall.Requests, len(schedule))
	}
	var routeSum int64
	for _, rs := range res.Routes {
		routeSum += rs.Requests
	}
	if routeSum != int64(len(schedule)) {
		t.Fatalf("per-route requests sum to %d, want %d", routeSum, len(schedule))
	}
	if got := errorTotal(res); got != 0 {
		t.Fatalf("errors = %v, want none", res.Errors)
	}
	if res.ErrorRate != 0 {
		t.Fatalf("error rate = %v, want 0", res.ErrorRate)
	}

	// The client-side split must match what the stub observed.
	var wantSingles, wantBatches, wantReloads int64
	for _, req := range schedule {
		switch req.Kind {
		case KindSingle:
			wantSingles++
		case KindBatch:
			wantBatches++
		case KindReload:
			wantReloads++
		}
	}
	if stub.singles != wantSingles || stub.batches != wantBatches || stub.reloads != wantReloads {
		t.Fatalf("stub saw %d/%d/%d single/batch/reload, schedule says %d/%d/%d",
			stub.singles, stub.batches, stub.reloads, wantSingles, wantBatches, wantReloads)
	}
	if res.Routes["single"].Requests != wantSingles || res.Routes["batch"].Requests != wantBatches ||
		res.Routes["reload"].Requests != wantReloads {
		t.Fatalf("route stats %+v disagree with schedule %d/%d/%d",
			res.Routes, wantSingles, wantBatches, wantReloads)
	}

	// The scraped server section reflects the stub's metrics endpoint.
	if res.Server == nil {
		t.Fatal("ScrapeTarget should populate the server section")
	}
	if got := res.Server.Requests["classify"]; got != wantSingles+wantBatches {
		t.Fatalf("server-side classify count = %d, want %d", got, wantSingles+wantBatches)
	}
	if got := res.Server.Requests["reload"]; got != wantReloads {
		t.Fatalf("server-side reload count = %d, want %d", got, wantReloads)
	}
	if res.Server.SequencesTotal != stub.sequences || stub.sequences == 0 {
		t.Fatalf("server-side sequences_total = %d, stub counted %d", res.Server.SequencesTotal, stub.sequences)
	}

	// Sanity on derived values.
	if res.ThroughputRPS <= 0 || res.WallSeconds <= 0 {
		t.Fatalf("throughput %v over %vs", res.ThroughputRPS, res.WallSeconds)
	}
	if res.Overall.P99Ms < res.Overall.P50Ms {
		t.Fatalf("p99 %v < p50 %v", res.Overall.P99Ms, res.Overall.P50Ms)
	}
}

// TestRunRecordsServerErrors: a stub that 500s on classify must surface
// as 5xx error counts and a non-zero error rate, not a run failure.
func TestRunRecordsServerErrors(t *testing.T) {
	var hits atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		http.Error(w, "boom", http.StatusInternalServerError)
	}))
	defer ts.Close()

	sc := e2eScenario()
	sc.RatePerSec = 200
	sc.ReloadPeriodSec = 0
	r := &Runner{BaseURL: ts.URL}
	res, err := r.Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	if res.Errors["5xx"] != int64(res.RequestsSent) {
		t.Fatalf("5xx = %d, want every request (%d)", res.Errors["5xx"], res.RequestsSent)
	}
	if res.ErrorRate != 1 {
		t.Fatalf("error rate = %v, want 1", res.ErrorRate)
	}
	if hits.Load() != int64(res.RequestsSent) {
		t.Fatalf("stub saw %d requests, runner sent %d", hits.Load(), res.RequestsSent)
	}
}

// TestRunValidationCatchesShortBatch: a stub that drops batch results
// must be flagged as bad_response when Validate is on.
func TestRunValidationCatchesShortBatch(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		// Always answer a single-result body, wrong for any batch.
		w.Write([]byte(`{"results":[{"cluster":0}]}`))
	}))
	defer ts.Close()

	sc := e2eScenario()
	sc.BatchFraction = 1
	sc.RatePerSec = 100
	sc.ReloadPeriodSec = 0
	r := &Runner{BaseURL: ts.URL, Validate: true}
	res, err := r.Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	if res.Errors["bad_response"] != int64(res.RequestsSent) {
		t.Fatalf("bad_response = %d, want %d", res.Errors["bad_response"], res.RequestsSent)
	}
}

// TestRunnerRequiresTarget pins the constructor-free API's validation.
func TestRunnerRequiresTarget(t *testing.T) {
	sc := e2eScenario()
	if _, err := (&Runner{}).Run(sc); err == nil || !strings.Contains(err.Error(), "BaseURL") {
		t.Fatalf("missing BaseURL should fail, got %v", err)
	}
	bad := e2eScenario()
	bad.RatePerSec = 0
	if _, err := (&Runner{BaseURL: "http://x"}).Run(bad); err == nil {
		t.Fatal("invalid scenario should fail Run")
	}
}

// TestRunIngestMix replays a scenario with ingest traffic against the
// stub: the ingest route must appear in the result with zero errors,
// batch validation must hold on ingest responses too, and the stub's
// count must match the schedule's ingest share.
func TestRunIngestMix(t *testing.T) {
	stub := &stubServer{}
	ts := httptest.NewServer(stub.handler())
	defer ts.Close()

	sc := e2eScenario()
	sc.Name = "stub-ingest"
	sc.IngestFraction = 0.4
	r := &Runner{BaseURL: ts.URL, Validate: true}
	res, err := r.Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	var wantIngest int64
	for _, req := range sc.Schedule() {
		if req.Kind == KindIngest {
			wantIngest++
		}
	}
	if wantIngest == 0 {
		t.Fatal("scenario scheduled no ingest requests")
	}
	ing, ok := res.Routes["ingest"]
	if !ok {
		t.Fatalf("no ingest route in result: %v", res.Routes)
	}
	if ing.Requests != wantIngest || ing.Errors != 0 {
		t.Fatalf("ingest route = %+v, want %d requests, 0 errors", ing, wantIngest)
	}
	stub.mu.Lock()
	got := stub.ingests
	stub.mu.Unlock()
	if got != wantIngest {
		t.Fatalf("stub saw %d ingests, schedule carried %d", got, wantIngest)
	}
	if res.ErrorRate != 0 {
		t.Fatalf("error rate %v, want 0 (errors: %v)", res.ErrorRate, res.Errors)
	}
}
