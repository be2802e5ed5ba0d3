package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"cluseq/internal/core"
	"cluseq/internal/obs"
	"cluseq/internal/pst"
	"cluseq/internal/registry"
	"cluseq/internal/seq"
)

// makeClassifier builds a tiny single-cluster classifier trained on the
// given strings over alphabet "abcd".
func makeClassifier(t testing.TB, trains ...string) *core.Classifier {
	t.Helper()
	db := seq.NewDatabase(seq.MustAlphabet("abcd"))
	tree := pst.MustNew(pst.Config{AlphabetSize: 4, MaxDepth: 4, Significance: 1})
	for i, s := range trains {
		if err := db.AddString(fmt.Sprintf("s%d", i), "", s); err != nil {
			t.Fatal(err)
		}
		syms, err := db.Alphabet.Encode(s)
		if err != nil {
			t.Fatal(err)
		}
		tree.Insert(syms)
	}
	res := &core.Result{
		Clusters:       []*core.ClusterInfo{{ID: 0, Tree: tree}},
		FinalThreshold: 1.01,
	}
	clf, err := core.NewClassifier(db, res, core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	return clf
}

func writeBundle(t testing.TB, dir, name string, clf *core.Classifier) {
	t.Helper()
	tmp, err := os.CreateTemp(dir, name+".tmp")
	if err != nil {
		t.Fatal(err)
	}
	if err := clf.SaveBundle(tmp, core.BundleOptions{}); err != nil {
		t.Fatal(err)
	}
	if err := tmp.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.Rename(tmp.Name(), filepath.Join(dir, name+registry.Ext)); err != nil {
		t.Fatal(err)
	}
}

// newTestServer builds a registry over a fresh dir holding one model
// named "m" trained on alternating ab, and a Server over it.
func newTestServer(t testing.TB, cfg Config) (*Server, string) {
	t.Helper()
	dir := t.TempDir()
	writeBundle(t, dir, "m", makeClassifier(t, "abababababab", "babababa"))
	reg, _, err := registry.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Registry = reg
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s, dir
}

func postClassify(t *testing.T, url string, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url+"/v1/classify", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, data
}

func TestClassifySingle(t *testing.T) {
	s, _ := newTestServer(t, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, data := postClassify(t, ts.URL, `{"model":"m","sequence":"abababab"}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, data)
	}
	var out ClassifyResponse
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatalf("bad JSON %s: %v", data, err)
	}
	if len(out.Results) != 1 || out.Results[0].Error != "" {
		t.Fatalf("unexpected results: %s", data)
	}
	if out.Results[0].Cluster != 0 || out.Results[0].Outlier {
		t.Fatalf("in-family sequence should land in cluster 0: %s", data)
	}
	if out.Results[0].Similarity <= 0 {
		t.Fatalf("similarity %v", out.Results[0].Similarity)
	}
}

func TestClassifyBatch(t *testing.T) {
	s, _ := newTestServer(t, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, data := postClassify(t, ts.URL,
		`{"model":"m","sequences":["abababab","dddddddd","abab","zzz"]}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, data)
	}
	var out ClassifyResponse
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatal(err)
	}
	if len(out.Results) != 4 {
		t.Fatalf("got %d results, want 4 (index-aligned): %s", len(out.Results), data)
	}
	if out.Results[0].Cluster != 0 {
		t.Fatalf("result 0 should be in-cluster: %s", data)
	}
	if !out.Results[1].Outlier {
		t.Fatalf("all-d sequence should be an outlier: %s", data)
	}
	if out.Results[3].Error == "" {
		t.Fatalf("out-of-alphabet sequence must carry a per-item error: %s", data)
	}
	if out.Outliers < 1 {
		t.Fatalf("outlier count %d: %s", out.Outliers, data)
	}
}

func TestClassifyRejections(t *testing.T) {
	s, _ := newTestServer(t, Config{MaxBatch: 3})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	cases := []struct {
		name, body string
		want       int
	}{
		{"malformed JSON", `{"model":`, http.StatusBadRequest},
		{"missing model", `{"sequence":"ab"}`, http.StatusBadRequest},
		{"missing sequences", `{"model":"m"}`, http.StatusBadRequest},
		{"both forms", `{"model":"m","sequence":"a","sequences":["b"]}`, http.StatusBadRequest},
		{"unknown model", `{"model":"ghost","sequence":"ab"}`, http.StatusNotFound},
		{"oversized batch", `{"model":"m","sequences":["a","b","a","b"]}`, http.StatusRequestEntityTooLarge},
	}
	for _, tc := range cases {
		resp, data := postClassify(t, ts.URL, tc.body)
		if resp.StatusCode != tc.want {
			t.Errorf("%s: status %d, want %d (%s)", tc.name, resp.StatusCode, tc.want, data)
		}
		var e errorBody
		if err := json.Unmarshal(data, &e); err != nil || e.Error == "" {
			t.Errorf("%s: error body %q not JSON with an error field", tc.name, data)
		}
	}
	// Wrong method on the API paths.
	resp, err := http.Get(ts.URL + "/v1/classify")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /v1/classify: status %d, want 405", resp.StatusCode)
	}
}

func TestModelsListing(t *testing.T) {
	s, _ := newTestServer(t, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/v1/models")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out struct {
		Models []struct {
			Name string         `json:"name"`
			Info core.ModelInfo `json:"info"`
		} `json:"models"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if len(out.Models) != 1 || out.Models[0].Name != "m" {
		t.Fatalf("models listing: %+v", out)
	}
	info := out.Models[0].Info
	if info.Clusters != 1 || info.Alphabet != "abcd" || info.TotalNodes < 1 || info.Threshold <= 1 {
		t.Fatalf("model info: %+v", info)
	}
}

func TestHealthReadyMetrics(t *testing.T) {
	// Empty registry: healthy but not ready.
	emptyReg, _, err := registry.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	s0, err := New(Config{Registry: emptyReg})
	if err != nil {
		t.Fatal(err)
	}
	ts0 := httptest.NewServer(s0.Handler())
	defer ts0.Close()
	for path, want := range map[string]int{"/healthz": 200, "/readyz": 503} {
		resp, err := http.Get(ts0.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != want {
			t.Fatalf("%s on empty registry: %d, want %d", path, resp.StatusCode, want)
		}
	}

	// Loaded registry: ready, and metrics move after classifications.
	s, _ := newTestServer(t, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("/readyz with a model: %d", resp.StatusCode)
	}
	postClassify(t, ts.URL, `{"model":"m","sequences":["abababab","dddddddd"]}`)
	postClassify(t, ts.URL, `{"model":"ghost","sequence":"ab"}`)

	series := scrape(t, ts.URL)
	for id, want := range map[string]float64{
		`cluseqd_requests_total{route="classify"}`: 2,
		`cluseqd_errors_total{class="not_found"}`:  1,
		"cluseqd_sequences_total":                  2,
		`cluseqd_classifications_total{model="m"}`: 2,
		"cluseqd_outliers_total":                   1,
	} {
		if got := series[id].Value; got != want {
			t.Errorf("%s = %v, want %v", id, got, want)
		}
	}
	if lat := series[`cluseqd_request_seconds{route="classify"}`]; lat.Count != 2 || len(lat.Quantiles) != 3 {
		t.Errorf("classify latency summary: %+v", lat)
	}
}

// scrape fetches GET /metrics and reads the exposition back, keyed by
// series identity (name{labels}).
func scrape(t testing.TB, url string) map[string]obs.Metric {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	ms, err := obs.ParsePrometheus(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string]obs.Metric, len(ms))
	for _, m := range ms {
		out[m.ID()] = m
	}
	return out
}

// TestRequestIDPropagation pins the correlation-ID contract: a caller's
// X-Request-ID flows through a batch classify to the response header and
// into error bodies; absent or unprintable IDs are replaced by a
// generated one.
func TestRequestIDPropagation(t *testing.T) {
	s, _ := newTestServer(t, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Caller-supplied ID echoes through a successful batch classify.
	req, err := http.NewRequest("POST", ts.URL+"/v1/classify",
		strings.NewReader(`{"model":"m","sequences":["abababab","dddddddd"]}`))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(RequestIDHeader, "trace-42")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch classify: status %d", resp.StatusCode)
	}
	if got := resp.Header.Get(RequestIDHeader); got != "trace-42" {
		t.Fatalf("response %s = %q, want caller's trace-42", RequestIDHeader, got)
	}

	// The same ID lands in the error body of a failing request.
	req, err = http.NewRequest("POST", ts.URL+"/v1/classify",
		strings.NewReader(`{"model":"ghost","sequence":"ab"}`))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(RequestIDHeader, "trace-42")
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	var e errorBody
	if err := json.Unmarshal(data, &e); err != nil {
		t.Fatalf("error body %q: %v", data, err)
	}
	if e.RequestID != "trace-42" {
		t.Fatalf("error body request_id = %q, want trace-42 (%s)", e.RequestID, data)
	}

	// No header: the server generates a 16-hex-char ID.
	resp, _ = postClassify(t, ts.URL, `{"model":"m","sequence":"abab"}`)
	gen := resp.Header.Get(RequestIDHeader)
	if len(gen) != 16 {
		t.Fatalf("generated ID %q, want 16 hex chars", gen)
	}

	// Non-printable-ASCII or oversized IDs are discarded, not echoed.
	// (Truly binary values never reach the server: Go's client rejects
	// them; a space is the representative in-band invalid byte.)
	for name, bad := range map[string]string{
		"embedded space": "evil id",
		"oversized":      strings.Repeat("x", 200),
	} {
		req, err = http.NewRequest("GET", ts.URL+"/healthz", nil)
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set(RequestIDHeader, bad)
		resp, err = http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if got := resp.Header.Get(RequestIDHeader); got == bad || len(got) != 16 {
			t.Fatalf("%s ID: echoed %q, want a fresh generated ID", name, got)
		}
	}
}

// TestMetricsPrometheus checks the one exposition, with and without the
// ?format=prom query older scrapers send: correct content type and
// well-formed lines covering the server, pool, and registry metric
// families, and no millisecond duplicate of the route latency.
func TestMetricsPrometheus(t *testing.T) {
	s, _ := newTestServer(t, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	postClassify(t, ts.URL, `{"model":"m","sequences":["abababab","dddddddd"]}`)
	postClassify(t, ts.URL, `{"model":"ghost","sequence":"ab"}`)
	rr, err := http.Post(ts.URL+"/v1/models/reload", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	rr.Body.Close()

	for _, path := range []string{"/metrics", "/metrics?format=prom"} {
		checkExposition(t, ts.URL+path)
	}
}

func checkExposition(t *testing.T, url string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("%s: Content-Type = %q", url, ct)
	}
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	out := string(data)
	for _, want := range []string{
		"# TYPE cluseqd_requests_total counter",
		`cluseqd_requests_total{route="classify"} 2`,
		`cluseqd_responses_total{route="classify",status="404"} 1`,
		`cluseqd_errors_total{class="not_found"} 1`,
		"cluseqd_sequences_total 2",
		"cluseqd_outliers_total 1",
		`cluseqd_classifications_total{model="m"} 2`,
		"# TYPE cluseqd_request_seconds summary",
		`cluseqd_request_seconds_count{route="classify"} 2`,
		"# TYPE cluseqd_uptime_seconds gauge",
		"# TYPE cluseqd_inflight_requests gauge",
		// The scrape itself is the one request in flight at read time.
		"cluseqd_inflight_requests 1",
		"# TYPE cluseqd_classify_batch_size summary",
		"cluseqd_classify_batch_size_count 2",
		`cluseqd_model_clusters{model="m"} 1`,
		"cluseq_registry_reloads_total 1",
		"cluseqd_pool_runs_total",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("%s: exposition missing %q", url, want)
		}
	}
	for _, gone := range []string{"cluseqd_classify_latency_ms", "cluseqd_ingest_latency_ms"} {
		if strings.Contains(out, gone) {
			t.Errorf("%s: exposition still carries %s", url, gone)
		}
	}
	// Every non-comment line must be "name_or_labels value".
	for _, line := range strings.Split(strings.TrimRight(out, "\n"), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		if fields := strings.Split(line, " "); len(fields) != 2 {
			t.Errorf("malformed exposition line: %q", line)
		}
	}
}

// TestHotReloadUnderFire rewrites and reloads the model while classify
// requests stream in; every classify must succeed (-race covers the
// snapshot discipline).
func TestHotReloadUnderFire(t *testing.T) {
	s, dir := newTestServer(t, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	a := makeClassifier(t, "abababababab", "babababa")
	b := makeClassifier(t, "cdcdcdcdcdcd", "dcdcdcdc", "cdcd")

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				resp, err := http.Post(ts.URL+"/v1/classify", "application/json",
					strings.NewReader(`{"model":"m","sequences":["abababab","cdcdcdcd","abcd"]}`))
				if err != nil {
					t.Errorf("classify during reload: %v", err)
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					t.Errorf("classify during reload: status %d", resp.StatusCode)
					return
				}
			}
		}()
	}
	for i := 0; i < 15; i++ {
		clf := a
		if i%2 == 0 {
			clf = b
		}
		writeBundle(t, dir, "m", clf)
		// Push the modtime forward so every rewrite fingerprints as new.
		path := filepath.Join(dir, "m"+registry.Ext)
		fi, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		os.Chtimes(path, time.Now(), fi.ModTime().Add(time.Duration(i+1)*time.Second))

		resp, err := http.Post(ts.URL+"/v1/models/reload", "application/json", nil)
		if err != nil {
			t.Fatal(err)
		}
		var rep registry.Report
		if err := json.NewDecoder(resp.Body).Decode(&rep); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK || len(rep.Failed) != 0 {
			t.Fatalf("reload %d: status %d, report %+v", i, resp.StatusCode, rep)
		}
	}
	close(stop)
	wg.Wait()
}

// TestGracefulShutdownCompletesInFlight drives a real http.Server: a
// classify request is held mid-handler while Shutdown begins, and must
// still complete with 200.
func TestGracefulShutdownCompletesInFlight(t *testing.T) {
	s, _ := newTestServer(t, Config{})
	started := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	s.classifyHook = func() {
		once.Do(func() {
			close(started)
			<-release
		})
	}

	srv := &http.Server{Handler: s.Handler()}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	url := "http://" + ln.Addr().String()

	type result struct {
		status int
		body   string
		err    error
	}
	done := make(chan result, 1)
	go func() {
		resp, err := http.Post(url+"/v1/classify", "application/json",
			strings.NewReader(`{"model":"m","sequence":"abababab"}`))
		if err != nil {
			done <- result{err: err}
			return
		}
		defer resp.Body.Close()
		var buf bytes.Buffer
		io.Copy(&buf, resp.Body)
		done <- result{status: resp.StatusCode, body: buf.String()}
	}()

	<-started // the request is now inside the handler
	shutdownDone := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		shutdownDone <- srv.Shutdown(ctx)
	}()
	// Let Shutdown settle into draining, then release the handler.
	time.Sleep(50 * time.Millisecond)
	close(release)

	res := <-done
	if res.err != nil {
		t.Fatalf("in-flight request failed during shutdown: %v", res.err)
	}
	if res.status != http.StatusOK {
		t.Fatalf("in-flight request: status %d, body %s", res.status, res.body)
	}
	if err := <-shutdownDone; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
}

func TestRequestTimeout(t *testing.T) {
	s, _ := newTestServer(t, Config{Timeout: 30 * time.Millisecond})
	s.classifyHook = func() { time.Sleep(200 * time.Millisecond) }
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, data := postClassify(t, ts.URL, `{"model":"m","sequence":"ab"}`)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503; body %s", resp.StatusCode, data)
	}
	var e errorBody
	if err := json.Unmarshal(data, &e); err != nil || e.Error == "" {
		t.Fatalf("timeout body %q should be the JSON error shape", data)
	}
	// Health endpoints stay exempt from the API timeout.
	hr, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hr.Body.Close()
	if hr.StatusCode != 200 {
		t.Fatalf("/healthz: %d", hr.StatusCode)
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("New should require a registry")
	}
	reg, _, err := registry.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(Config{Registry: reg, MaxBatch: -1}); err == nil {
		t.Fatal("New should reject a negative MaxBatch")
	}
}
