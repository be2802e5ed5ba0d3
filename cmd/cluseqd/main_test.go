package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"cluseq"
	"cluseq/internal/datagen"
	"cluseq/internal/obs"
)

// trainBundle runs the full CLUSEQ pipeline on a synthetic workload and
// writes the resulting classifier bundle — the same artifact
// `cluseq -model` produces — to path. Some seeds converge to an empty
// clustering (nothing to serve), so it walks derived seeds until one
// yields clusters.
func trainBundle(t *testing.T, path string, seed uint64) {
	t.Helper()
	var clf *cluseq.Classifier
	for attempt := uint64(0); attempt < 8; attempt++ {
		s := seed + 1000*attempt
		db, err := datagen.SyntheticDB(datagen.SyntheticConfig{
			NumSequences: 120,
			AvgLength:    90,
			AlphabetSize: 10,
			NumClusters:  3,
			Seed:         s,
		})
		if err != nil {
			t.Fatalf("SyntheticDB: %v", err)
		}
		opts := cluseq.Options{KeepTrees: true, Seed: s}
		res, err := cluseq.Cluster(db, opts)
		if err != nil {
			t.Fatalf("Cluster: %v", err)
		}
		if len(res.Clusters) == 0 {
			continue
		}
		clf, err = cluseq.NewClassifier(db, res, opts)
		if err != nil {
			t.Fatalf("NewClassifier: %v", err)
		}
		break
	}
	if clf == nil {
		t.Fatalf("no seed derived from %d produced a non-empty clustering", seed)
	}
	var buf bytes.Buffer
	if err := clf.SaveBundle(&buf, cluseq.BundleOptions{}); err != nil {
		t.Fatalf("SaveBundle: %v", err)
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, buf.Bytes(), 0o644); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		t.Fatalf("Rename: %v", err)
	}
}

// startDaemon launches run() on an ephemeral port and returns the base
// URL, the signal channel that stops it, and a channel carrying its exit
// code.
func startDaemon(t *testing.T, extraArgs ...string) (base string, sig chan os.Signal, done chan int, logs *bytes.Buffer) {
	t.Helper()
	sig = make(chan os.Signal, 1)
	done = make(chan int, 1)
	ready := make(chan string, 1)
	logs = &bytes.Buffer{}
	var mu sync.Mutex
	w := lockedWriter{mu: &mu, buf: logs}
	args := append([]string{"-addr", "127.0.0.1:0"}, extraArgs...)
	go func() { done <- run(args, w, sig, ready) }()
	select {
	case addr := <-ready:
		return "http://" + addr, sig, done, logs
	case code := <-done:
		mu.Lock()
		defer mu.Unlock()
		t.Fatalf("daemon exited early with code %d: %s", code, logs.String())
		return "", nil, nil, nil
	case <-time.After(30 * time.Second):
		t.Fatal("daemon did not become ready")
		return "", nil, nil, nil
	}
}

type lockedWriter struct {
	mu  *sync.Mutex
	buf *bytes.Buffer
}

func (w lockedWriter) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.buf.Write(p)
}

func postJSON(t *testing.T, url string, body any) (*http.Response, []byte) {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	var out bytes.Buffer
	out.ReadFrom(resp.Body)
	return resp, out.Bytes()
}

// TestDaemonEndToEnd exercises the full serving path: train a model,
// start the daemon on its directory, classify a batch over HTTP,
// hot-reload a retrained bundle without a single failed request, and
// scrape non-zero throughput/latency metrics.
func TestDaemonEndToEnd(t *testing.T) {
	dir := t.TempDir()
	bundle := filepath.Join(dir, "synth"+cluseq.ModelBundleExt)
	trainBundle(t, bundle, 7)

	base, sig, done, logs := startDaemon(t, "-models", dir, "-drain", "5s", "-v")

	// Readiness and the model listing.
	resp, err := http.Get(base + "/readyz")
	if err != nil {
		t.Fatalf("GET /readyz: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/readyz = %d, want 200", resp.StatusCode)
	}

	// Pull the model's alphabet from the listing so the test sequences
	// are valid regardless of which runes the generator picked.
	resp, err = http.Get(base + "/v1/models")
	if err != nil {
		t.Fatalf("GET /v1/models: %v", err)
	}
	var listing struct {
		Models []struct {
			Name string `json:"name"`
			Info struct {
				Alphabet string `json:"alphabet"`
			} `json:"info"`
		} `json:"models"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&listing); err != nil {
		t.Fatalf("models decode: %v", err)
	}
	resp.Body.Close()
	if len(listing.Models) != 1 || listing.Models[0].Name != "synth" {
		t.Fatalf("models listing = %+v, want one model synth", listing.Models)
	}
	alpha := []rune(listing.Models[0].Info.Alphabet)
	if len(alpha) < 3 {
		t.Fatalf("alphabet %q too small", listing.Models[0].Info.Alphabet)
	}
	tri := string([]rune{alpha[0], alpha[1], alpha[2]})
	probe := strings.Repeat(tri, 4)

	resp, body := postJSON(t, base+"/v1/classify", map[string]any{
		"model": "synth",
		"sequences": []string{
			probe,
			strings.Repeat(string(alpha[2]), 12),
			strings.Repeat(string(alpha[0])+string(alpha[1]), 6),
		},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("classify = %d: %s", resp.StatusCode, body)
	}
	var cr cluseq.ClassifyResponse
	if err := json.Unmarshal(body, &cr); err != nil {
		t.Fatalf("classify response: %v", err)
	}
	if len(cr.Results) != 3 {
		t.Fatalf("got %d results, want 3", len(cr.Results))
	}
	for i, r := range cr.Results {
		if r.Error != "" {
			t.Fatalf("result %d errored: %s", i, r.Error)
		}
	}

	// Hot reload under fire: classify continuously while a retrained
	// bundle replaces the file on disk and /v1/models/reload swaps it in.
	// No request may fail at any point.
	stop := make(chan struct{})
	classifyErr := make(chan error, 4)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				raw, _ := json.Marshal(map[string]any{"model": "synth", "sequence": probe})
				resp, err := http.Post(base+"/v1/classify", "application/json", bytes.NewReader(raw))
				if err != nil {
					classifyErr <- err
					return
				}
				var out bytes.Buffer
				out.ReadFrom(resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					classifyErr <- fmt.Errorf("classify during reload = %d: %s", resp.StatusCode, out.String())
					return
				}
			}
		}()
	}
	for i := 0; i < 5; i++ {
		trainBundle(t, bundle, uint64(100+i))
		// Bump the mtime so the registry's size+mtime fingerprint always
		// registers the rewrite, even on coarse filesystem clocks.
		future := time.Now().Add(time.Duration(i+1) * time.Second)
		if err := os.Chtimes(bundle, future, future); err != nil {
			t.Fatalf("Chtimes: %v", err)
		}
		resp, body := postJSON(t, base+"/v1/models/reload", nil)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("reload = %d: %s", resp.StatusCode, body)
		}
		var rep cluseq.ReloadReport
		if err := json.Unmarshal(body, &rep); err != nil {
			t.Fatalf("reload report: %v", err)
		}
		if len(rep.Failed) != 0 {
			t.Fatalf("reload %d failed models: %v", i, rep.Failed)
		}
		if len(rep.Loaded) != 1 || rep.Loaded[0] != "synth" {
			t.Fatalf("reload %d loaded %v, want [synth]", i, rep.Loaded)
		}
	}
	close(stop)
	wg.Wait()
	select {
	case err := <-classifyErr:
		t.Fatalf("request failed during hot reload: %v", err)
	default:
	}

	// Metrics must show real traffic: requests, sequences, latency.
	resp, err = http.Get(base + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	ms, err := obs.ParsePrometheus(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("metrics parse: %v", err)
	}
	series := map[string]obs.Metric{}
	for _, m := range ms {
		series[m.ID()] = m
	}
	if got := series[`cluseqd_requests_total{route="classify"}`].Value; got < 4 {
		t.Errorf("classify requests = %v, want ≥ 4", got)
	}
	if got := series[`cluseqd_requests_total{route="reload"}`].Value; got != 5 {
		t.Errorf("reload requests = %v, want 5", got)
	}
	if got := series["cluseqd_sequences_total"].Value; got < 7 {
		t.Errorf("sequences_total = %v, want ≥ 7", got)
	}
	if lat := series[`cluseqd_request_seconds{route="classify"}`]; lat.Count < 4 || len(lat.Quantiles) == 0 {
		t.Errorf("classify latency summary = %+v, want ≥ 4 observations", lat)
	}

	// Graceful shutdown: SIGINT drains and run returns 0. Close the
	// client's idle keep-alive connections first: the four classify
	// goroutines can leave a dialed but never used connection in the
	// pool, which the server counts as new rather than idle until it is
	// 5 s old — a race with the 5 s drain deadline. The drain is for
	// requests in flight, and there are none.
	http.DefaultClient.CloseIdleConnections()
	sig <- os.Interrupt
	select {
	case code := <-done:
		if code != 0 {
			t.Fatalf("daemon exit code %d: %s", code, logs.String())
		}
	case <-time.After(10 * time.Second):
		t.Fatal("daemon did not shut down")
	}
}

// TestDaemonPprofAndProm covers the two opt-in observability surfaces:
// /debug/pprof/ exists only under -pprof, and /metrics?format=prom
// serves a well-formed Prometheus exposition either way.
func TestDaemonPprofAndProm(t *testing.T) {
	dir := t.TempDir()
	trainBundle(t, filepath.Join(dir, "synth"+cluseq.ModelBundleExt), 7)

	base, sig, done, _ := startDaemon(t, "-models", dir, "-pprof")
	resp, err := http.Get(base + "/debug/pprof/")
	if err != nil {
		t.Fatalf("GET /debug/pprof/: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/debug/pprof/ with -pprof = %d, want 200", resp.StatusCode)
	}

	// One request through the middleware so the per-route counters have a
	// series to export (pprof paths bypass the request middleware).
	if resp, err = http.Get(base + "/readyz"); err != nil {
		t.Fatalf("GET /readyz: %v", err)
	}
	resp.Body.Close()

	resp, err = http.Get(base + "/metrics?format=prom")
	if err != nil {
		t.Fatalf("GET /metrics?format=prom: %v", err)
	}
	var body bytes.Buffer
	body.ReadFrom(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("prom metrics = %d: %s", resp.StatusCode, body.String())
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("prom Content-Type = %q", ct)
	}
	out := body.String()
	for _, want := range []string{
		"# TYPE cluseqd_requests_total counter",
		"cluseq_registry_models 1",
		"cluseqd_model_clusters{model=\"synth\"}",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
	sig <- os.Interrupt
	if code := <-done; code != 0 {
		t.Fatalf("daemon exit code %d", code)
	}

	// Without -pprof the profiling surface must not exist.
	base, sig, done, _ = startDaemon(t, "-models", dir)
	resp, err = http.Get(base + "/debug/pprof/")
	if err != nil {
		t.Fatalf("GET /debug/pprof/: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode == http.StatusOK {
		t.Fatal("/debug/pprof/ reachable without -pprof")
	}
	sig <- os.Interrupt
	if code := <-done; code != 0 {
		t.Fatalf("daemon exit code %d", code)
	}
}

func TestDaemonUsageErrors(t *testing.T) {
	var buf bytes.Buffer
	if code := run(nil, &buf, nil, nil); code != 2 {
		t.Fatalf("run with no -models = %d, want 2", code)
	}
	if !strings.Contains(buf.String(), "usage:") {
		t.Fatalf("missing usage line: %s", buf.String())
	}
	buf.Reset()
	if code := run([]string{"-models", filepath.Join(t.TempDir(), "nope")}, &buf, nil, nil); code != 1 {
		t.Fatalf("run with missing dir = %d, want 1", code)
	}
}

// TestDaemonStreamingEndToEnd exercises the ISSUE's acceptance path:
// start a daemon with an empty model directory and -stream, feed it a
// labeled synthetic stream over POST /v1/ingest, watch clusters form and
// consolidate, classify against the continuously republished "stream"
// model mid-ingest with zero non-200s, and verify the stream gauges
// landed in /metrics and every consolidation — a job trace kept even at
// -trace-sample 0, joined to the ingest that triggered it — landed in
// /debug/traces and -trace-out.
func TestDaemonStreamingEndToEnd(t *testing.T) {
	db, err := datagen.SyntheticDB(datagen.SyntheticConfig{
		NumSequences: 400,
		AvgLength:    80,
		AlphabetSize: 12,
		NumClusters:  4,
		OutlierFrac:  0.02,
		Seed:         11,
	})
	if err != nil {
		t.Fatalf("SyntheticDB: %v", err)
	}

	dir := t.TempDir() // empty: the stream model is the only one served
	traceFile := filepath.Join(t.TempDir(), "spans.jsonl")
	base, sig, done, logs := startDaemon(t,
		"-models", dir,
		"-stream", "-stream-alphabet", db.Alphabet.String(),
		"-stream-threshold", "1.05", "-stream-consolidate", "64",
		"-trace-out", traceFile, "-trace-sample", "0", "-v")

	// No models yet: not ready, and classify against "stream" is a 404.
	resp, err := http.Get(base + "/readyz")
	if err != nil {
		t.Fatalf("GET /readyz: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("/readyz before any publish = %d, want 503", resp.StatusCode)
	}

	// Feed the stream in batches, classifying mid-ingest as soon as the
	// first consolidation published a snapshot. Every request on both
	// endpoints must be a 200.
	published := false
	classifies := 0
	ingestIDs := map[string]bool{}
	const batchSize = 40
	for off := 0; off < db.Len(); off += batchSize {
		end := off + batchSize
		if end > db.Len() {
			end = db.Len()
		}
		batch := make([]string, 0, end-off)
		for _, s := range db.Sequences[off:end] {
			batch = append(batch, db.Alphabet.Decode(s.Symbols))
		}
		resp, body := postJSON(t, base+"/v1/ingest", cluseq.IngestRequest{Sequences: batch})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("ingest at offset %d = %d: %s", off, resp.StatusCode, body)
		}
		ingestIDs[resp.Header.Get("X-Trace-ID")] = true
		var ir cluseq.IngestResponse
		if err := json.Unmarshal(body, &ir); err != nil {
			t.Fatalf("ingest response: %v", err)
		}
		if len(ir.Results) != len(batch) {
			t.Fatalf("ingest results = %d, want %d", len(ir.Results), len(batch))
		}

		resp, err = http.Get(base + "/v1/ingest/stats")
		if err != nil {
			t.Fatalf("GET /v1/ingest/stats: %v", err)
		}
		var st cluseq.StreamStats
		decErr := json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK || decErr != nil {
			t.Fatalf("ingest stats = %d, decode %v", resp.StatusCode, decErr)
		}
		if st.PublishedVersion > 0 {
			published = true
		}
		if published {
			probe := db.Alphabet.Decode(db.Sequences[0].Symbols)
			resp, body := postJSON(t, base+"/v1/classify", map[string]any{"model": "stream", "sequence": probe})
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("mid-ingest classify = %d: %s", resp.StatusCode, body)
			}
			var cr cluseq.ClassifyResponse
			if err := json.Unmarshal(body, &cr); err != nil {
				t.Fatalf("classify response: %v", err)
			}
			if len(cr.Results) != 1 || cr.Results[0].Error != "" {
				t.Fatalf("mid-ingest classify result: %s", body)
			}
			classifies++
		}
	}
	if !published {
		t.Fatal("no snapshot was published during the stream")
	}
	if classifies == 0 {
		t.Fatal("no mid-ingest classification happened")
	}

	// Final state: clusters formed, consolidations ran, the stream model
	// is listed and the daemon is ready.
	resp, err = http.Get(base + "/v1/ingest/stats")
	if err != nil {
		t.Fatalf("GET /v1/ingest/stats: %v", err)
	}
	var st cluseq.StreamStats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatalf("stats decode: %v", err)
	}
	resp.Body.Close()
	if st.Clusters < 2 {
		t.Errorf("clusters = %d, want ≥ 2 (4 planted)", st.Clusters)
	}
	if st.Consolidations == 0 || st.PublishedVersion == 0 {
		t.Errorf("consolidations = %d, version = %d, want both > 0", st.Consolidations, st.PublishedVersion)
	}
	if resp, err = http.Get(base + "/readyz"); err != nil {
		t.Fatalf("GET /readyz: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("/readyz after publish = %d, want 200", resp.StatusCode)
	}

	// The shared exposition must carry the stream gauges with live values.
	resp, err = http.Get(base + "/metrics?format=prom")
	if err != nil {
		t.Fatalf("GET /metrics?format=prom: %v", err)
	}
	var prom bytes.Buffer
	prom.ReadFrom(resp.Body)
	resp.Body.Close()
	for _, want := range []string{
		"cluseq_stream_clusters",
		"cluseq_stream_consolidations_total",
		"cluseq_stream_published_version",
	} {
		if !strings.Contains(prom.String(), want) {
			t.Errorf("prom exposition missing %s", want)
		}
	}
	if strings.Contains(prom.String(), "cluseq_stream_clusters 0\n") {
		t.Error("cluseq_stream_clusters still 0 after the stream")
	}

	// Every consolidation so far was tripped by an ingest: each is a job
	// trace in that request's trace, hanging off its root span.
	resp, err = http.Get(base + "/debug/traces?route=stream_consolidate")
	if err != nil {
		t.Fatalf("GET /debug/traces: %v", err)
	}
	var dump obs.FlightDump
	if err := json.NewDecoder(resp.Body).Decode(&dump); err != nil {
		t.Fatalf("traces decode: %v", err)
	}
	resp.Body.Close()
	if int64(len(dump.Recent)) != st.Consolidations {
		t.Errorf("/debug/traces holds %d consolidations, want %d", len(dump.Recent), st.Consolidations)
	}
	for _, rec := range dump.Recent {
		if !ingestIDs[rec.TraceID] || rec.ParentID == "" || len(rec.Spans) != 5 {
			t.Errorf("consolidation %s (parent %q, %d spans) not joined to an ingest", rec.TraceID, rec.ParentID, len(rec.Spans))
		}
	}

	sig <- os.Interrupt
	select {
	case code := <-done:
		if code != 0 {
			t.Fatalf("daemon exit code %d: %s", code, logs.String())
		}
	case <-time.After(10 * time.Second):
		t.Fatal("daemon did not shut down")
	}

	// -trace-out captured every consolidation, the shutdown flush
	// included, with its phases as spans.
	spans, err := os.ReadFile(traceFile)
	if err != nil {
		t.Fatalf("reading trace file: %v", err)
	}
	for _, want := range []string{"stream_compile", "stream_merge", "stream_threshold", "stream_publish"} {
		if !strings.Contains(string(spans), `"name":"`+want+`"`) {
			t.Errorf("trace file missing span %s", want)
		}
	}
	jobs := strings.Count(string(spans), `"route":"stream_consolidate"`)
	if passes := strings.Count(logs.String(), "stream consolidation "); jobs != passes || int64(jobs) < st.Consolidations {
		t.Errorf("trace file holds %d consolidation jobs; the engine logged %d passes, %d before shutdown", jobs, passes, st.Consolidations)
	}
}

// TestDaemonStreamPersistResume pins stream durability end to end: a
// daemon with -stream-persist writes its published snapshots to disk,
// and a restarted daemon serves the stream model immediately and keeps
// ingesting with version continuity.
func TestDaemonStreamPersistResume(t *testing.T) {
	db, err := datagen.SyntheticDB(datagen.SyntheticConfig{
		NumSequences: 200,
		AvgLength:    80,
		AlphabetSize: 12,
		NumClusters:  3,
		Seed:         23,
	})
	if err != nil {
		t.Fatalf("SyntheticDB: %v", err)
	}
	modelsDir, persistDir := t.TempDir(), t.TempDir()
	streamArgs := []string{
		"-models", modelsDir,
		"-stream", "-stream-alphabet", db.Alphabet.String(),
		"-stream-threshold", "1.05", "-stream-consolidate", "32",
		"-stream-persist", persistDir, "-v",
	}
	ingest := func(base string, from, to int) {
		t.Helper()
		batch := make([]string, 0, to-from)
		for _, s := range db.Sequences[from:to] {
			batch = append(batch, db.Alphabet.Decode(s.Symbols))
		}
		resp, body := postJSON(t, base+"/v1/ingest", cluseq.IngestRequest{Sequences: batch})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("ingest = %d: %s", resp.StatusCode, body)
		}
	}
	stats := func(base string) cluseq.StreamStats {
		t.Helper()
		resp, err := http.Get(base + "/v1/ingest/stats")
		if err != nil {
			t.Fatalf("GET /v1/ingest/stats: %v", err)
		}
		defer resp.Body.Close()
		var st cluseq.StreamStats
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatalf("stats decode: %v", err)
		}
		return st
	}
	stop := func(sig chan os.Signal, done chan int, logs *bytes.Buffer) {
		t.Helper()
		sig <- os.Interrupt
		select {
		case code := <-done:
			if code != 0 {
				t.Fatalf("daemon exit code %d: %s", code, logs.String())
			}
		case <-time.After(10 * time.Second):
			t.Fatal("daemon did not shut down")
		}
	}

	// First life: ingest past a few consolidations, then drain.
	base, sig, done, logs := startDaemon(t, streamArgs...)
	ingest(base, 0, 150)
	st1 := stats(base)
	if st1.PublishedVersion == 0 || st1.Clusters == 0 {
		t.Fatalf("first life never published: %+v", st1)
	}
	stop(sig, done, logs)

	// The shutdown flush must have persisted a v3 bundle covering every
	// ingest, including the tail past the last cadence consolidation.
	path := filepath.Join(persistDir, "stream"+cluseq.ModelBundleExt)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("persisted bundle: %v", err)
	}
	persisted, err := cluseq.LoadClassifier(bytes.NewReader(data))
	if err != nil {
		t.Fatalf("persisted bundle unreadable: %v", err)
	}
	if persisted.PublishedVersion() <= st1.PublishedVersion {
		t.Fatalf("persisted version %d, want > %d (shutdown flush)", persisted.PublishedVersion(), st1.PublishedVersion)
	}

	// Second life: the stream model must be served before any ingest,
	// at the persisted version, and ingest must continue from there.
	base, sig, done, logs = startDaemon(t, streamArgs...)
	if resp, err := http.Get(base + "/readyz"); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("/readyz right after resume = %v, %v (want 200)", resp.StatusCode, err)
	} else {
		resp.Body.Close()
	}
	probe := db.Alphabet.Decode(db.Sequences[0].Symbols)
	resp, body := postJSON(t, base+"/v1/classify", map[string]any{"model": "stream", "sequence": probe})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("classify on resumed model = %d: %s", resp.StatusCode, body)
	}
	st2 := stats(base)
	if st2.PublishedVersion != persisted.PublishedVersion() || st2.Clusters != persisted.NumClusters() {
		t.Fatalf("resumed stats %+v, want version %d clusters %d", st2, persisted.PublishedVersion(), persisted.NumClusters())
	}
	ingest(base, 150, 200)
	stop(sig, done, logs)
	if st3 := persistedVersion(t, path); st3 <= persisted.PublishedVersion() {
		t.Fatalf("second life persisted version %d, want > %d", st3, persisted.PublishedVersion())
	}
	if !strings.Contains(logs.String(), "resumed stream model") {
		t.Fatalf("logs missing resume line: %s", logs.String())
	}
}

func persistedVersion(t *testing.T, path string) uint64 {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	clf, err := cluseq.LoadClassifier(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	return clf.PublishedVersion()
}
