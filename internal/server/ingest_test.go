package server

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cluseq/internal/core"
	"cluseq/internal/obs"
	"cluseq/internal/registry"
	"cluseq/internal/seq"
	"cluseq/internal/stream"
)

// newStreamServer builds a Server over an empty model directory plus a
// live streaming engine publishing into the registry under "stream" —
// the same wiring cluseqd -stream sets up, with one flight recorder at
// sample rate 0 for both the requests and the consolidation jobs.
func newStreamServer(t *testing.T, consolidateEvery int) (*Server, *stream.Engine) {
	t.Helper()
	reg, _, err := registry.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	// One metrics registry and one flight recorder span the engine and
	// the server, mirroring cluseqd's wiring.
	met := obs.NewRegistry()
	flight := obs.NewFlight(obs.FlightConfig{SlowThreshold: time.Hour, Obs: met})
	eng, err := stream.New(stream.Config{
		Alphabet:            seq.MustAlphabet("abcd"),
		SimilarityThreshold: 1.05,
		MaxDepth:            4,
		Significance:        2,
		FixedSignificance:   true,
		ConsolidateEvery:    consolidateEvery,
		Workers:             2,
		Publish: func(clf *core.Classifier, version uint64) {
			if err := reg.Publish("stream", clf, version); err != nil {
				t.Errorf("Publish v%d: %v", version, err)
			}
		},
		Obs:    met,
		Flight: flight,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(eng.Close)
	s, err := New(Config{Registry: reg, Stream: eng, Obs: met, Flight: flight})
	if err != nil {
		t.Fatal(err)
	}
	return s, eng
}

func postIngest(t *testing.T, url, body string) (*http.Response, IngestResponse, []byte) {
	t.Helper()
	resp, err := http.Post(url+"/v1/ingest", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var out IngestResponse
	if resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(data, &out); err != nil {
			t.Fatalf("decoding %s: %v", data, err)
		}
	}
	return resp, out, data
}

func TestIngestDisabled(t *testing.T) {
	s, _ := newTestServer(t, Config{}) // no Stream configured
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, _, body := postIngest(t, ts.URL, `{"sequence":"abab"}`)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("ingest without -stream = %d: %s", resp.StatusCode, body)
	}
	r2, err := http.Get(ts.URL + "/v1/ingest/stats")
	if err != nil {
		t.Fatal(err)
	}
	r2.Body.Close()
	if r2.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("ingest stats without -stream = %d", r2.StatusCode)
	}
}

func TestIngestSingleAndValidation(t *testing.T) {
	s, _ := newStreamServer(t, 1024)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, out, body := postIngest(t, ts.URL, `{"sequence":"abababab"}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest = %d: %s", resp.StatusCode, body)
	}
	if len(out.Results) != 1 || out.Results[0].Status != stream.StatusNewCluster {
		t.Fatalf("first ingest verdicts = %+v, want one new_cluster", out.Results)
	}
	if out.NewClusters != 1 || out.Clusters != 1 {
		t.Fatalf("tallies = %+v, want NewClusters=1 Clusters=1", out)
	}

	for payload, want := range map[string]int{
		`{"sequence":"ab","sequences":["ab"]}`: http.StatusBadRequest,
		`{}`:                                   http.StatusBadRequest,
		`{"sequences":[]}`:                     http.StatusBadRequest,
		`not json`:                             http.StatusBadRequest,
	} {
		resp, _, data := postIngest(t, ts.URL, payload)
		if resp.StatusCode != want {
			t.Errorf("ingest %s = %d, want %d: %s", payload, resp.StatusCode, want, data)
		}
	}
}

func TestIngestBatchAlignmentAndStats(t *testing.T) {
	s, _ := newStreamServer(t, 1024)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Invalid sequences ('z' outside alphabet) planted at fixed indices
	// must be exactly the rejected entries, index-aligned.
	markers := map[int]bool{0: true, 5: true}
	batch := make([]string, 8)
	for i := range batch {
		if markers[i] {
			batch[i] = "zzzz"
		} else {
			batch[i] = "abababab"
		}
	}
	raw, _ := json.Marshal(IngestRequest{Sequences: batch})
	resp, out, body := postIngest(t, ts.URL, string(raw))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch ingest = %d: %s", resp.StatusCode, body)
	}
	if len(out.Results) != len(batch) {
		t.Fatalf("%d results, want %d", len(out.Results), len(batch))
	}
	for i, v := range out.Results {
		if got, want := v.Status == stream.StatusRejected, markers[i]; got != want {
			t.Errorf("index %d: status %s (reason %q), marker=%v", i, v.Status, v.Reason, want)
		}
	}
	if out.Rejected != len(markers) {
		t.Errorf("Rejected = %d, want %d", out.Rejected, len(markers))
	}
	if out.Accepted+out.NewClusters != len(batch)-len(markers) {
		t.Errorf("Accepted+NewClusters = %d, want %d", out.Accepted+out.NewClusters, len(batch)-len(markers))
	}

	r2, err := http.Get(ts.URL + "/v1/ingest/stats")
	if err != nil {
		t.Fatal(err)
	}
	var st stream.Stats
	decErr := json.NewDecoder(r2.Body).Decode(&st)
	r2.Body.Close()
	if r2.StatusCode != http.StatusOK || decErr != nil {
		t.Fatalf("ingest stats = %d, decode %v", r2.StatusCode, decErr)
	}
	if st.Ingested != int64(len(batch)) || st.Rejected != int64(len(markers)) {
		t.Fatalf("stats = %+v, want ingested=%d rejected=%d", st, len(batch), len(markers))
	}
}

// TestSoakIngestClassifyUnderConsolidation sustains concurrent ingest
// and classify traffic while the engine consolidates and republishes
// every few ingests (run with -race in CI). Invariants, checked on every
// response:
//
//   - zero non-200s on both endpoints — consolidation and snapshot
//     publication must be invisible to classification;
//   - every classify sees a complete model: one result, no per-sequence
//     error, valid cluster/similarity fields;
//   - ingest batch results stay index-aligned, with the planted invalid
//     markers the exact rejected entries.
func TestSoakIngestClassifyUnderConsolidation(t *testing.T) {
	s, eng := newStreamServer(t, 16) // consolidate (and republish) every 16 ingests
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	client := ts.Client()

	// Seed the stream and force a first publication so "stream" is
	// classifiable before the classify workers start.
	seed := make([]string, 24)
	for i := range seed {
		if i%2 == 0 {
			seed[i] = "abababababab"
		} else {
			seed[i] = "cdcdcdcdcdcd"
		}
	}
	raw, _ := json.Marshal(IngestRequest{Sequences: seed})
	resp, _, body := postIngest(t, ts.URL, string(raw))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("seed ingest = %d: %s", resp.StatusCode, body)
	}
	eng.ConsolidateNow()
	if v := eng.Stats().PublishedVersion; v == 0 {
		t.Fatal("no snapshot published after seed + consolidate")
	}

	duration := 2 * time.Second
	if testing.Short() {
		duration = 250 * time.Millisecond
	}
	deadline := time.Now().Add(duration)

	const batchLen = 12
	markers := map[int]bool{2: true, 9: true}
	batch := make([]string, batchLen)
	for i := range batch {
		switch {
		case markers[i]:
			batch[i] = "zzzz"
		case i%2 == 0:
			batch[i] = "abababababab"
		default:
			batch[i] = "cdcdcdcdcdcd"
		}
	}
	ingestBody, _ := json.Marshal(IngestRequest{Sequences: batch})

	var (
		wg         sync.WaitGroup
		ingests    atomic.Int64
		classifies atomic.Int64
	)
	// Ingest workers keep the engine consolidating under the classifiers.
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				resp, err := client.Post(ts.URL+"/v1/ingest", "application/json", strings.NewReader(string(ingestBody)))
				if err != nil {
					t.Errorf("ingest worker %d: %v", w, err)
					return
				}
				var out IngestResponse
				decErr := json.NewDecoder(resp.Body).Decode(&out)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK || decErr != nil {
					t.Errorf("ingest worker %d: status %d, decode %v", w, resp.StatusCode, decErr)
					return
				}
				if len(out.Results) != batchLen {
					t.Errorf("ingest worker %d: %d results, want %d", w, len(out.Results), batchLen)
					return
				}
				for i, v := range out.Results {
					if got, want := v.Status == stream.StatusRejected, markers[i]; got != want {
						t.Errorf("ingest worker %d: index %d status %s, marker=%v", w, i, v.Status, want)
						return
					}
				}
				ingests.Add(1)
			}
		}(w)
	}
	// Classify workers hit the continuously republished stream model.
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				resp, err := client.Post(ts.URL+"/v1/classify", "application/json",
					strings.NewReader(`{"model":"stream","sequence":"abababababab"}`))
				if err != nil {
					t.Errorf("classify worker %d: %v", w, err)
					return
				}
				var out ClassifyResponse
				decErr := json.NewDecoder(resp.Body).Decode(&out)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK || decErr != nil {
					t.Errorf("classify worker %d: status %d, decode %v", w, resp.StatusCode, decErr)
					return
				}
				if len(out.Results) != 1 || out.Results[0].Error != "" {
					t.Errorf("classify worker %d: incomplete snapshot result %+v", w, out.Results)
					return
				}
				classifies.Add(1)
			}
		}(w)
	}
	wg.Wait()
	if ingests.Load() == 0 || classifies.Load() == 0 {
		t.Fatalf("soak made no progress: %d ingests, %d classifies", ingests.Load(), classifies.Load())
	}
	st := eng.Stats()
	if st.Consolidations == 0 || st.PublishedVersion < 2 {
		t.Fatalf("soak never consolidated under fire: %+v", st)
	}
	t.Logf("soak: %d ingest batches, %d classifies, %d consolidations, version %d",
		ingests.Load(), classifies.Load(), st.Consolidations, st.PublishedVersion)
}
