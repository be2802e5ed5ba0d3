package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"cluseq/internal/loadgen"
	"cluseq/internal/obs"
)

// stubTarget answers the three routes the generator drives plus the
// readiness probe, well-formed enough for -validate.
func stubTarget() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/classify", func(w http.ResponseWriter, r *http.Request) {
		var req struct {
			Sequence  string   `json:"sequence"`
			Sequences []string `json:"sequences"`
		}
		json.NewDecoder(r.Body).Decode(&req)
		n := len(req.Sequences)
		if req.Sequence != "" {
			n = 1
		}
		results := make([]map[string]any, n)
		for i := range results {
			results[i] = map[string]any{"cluster": 0}
		}
		json.NewEncoder(w).Encode(map[string]any{"results": results})
	})
	mux.HandleFunc("POST /v1/models/reload", func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte(`{}`))
	})
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte("ok"))
	})
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		reg := obs.NewRegistry()
		reg.Counter("cluseqd_requests_total", "route", "classify").Inc()
		reg.WritePrometheus(w)
	})
	return mux
}

// writeScenario drops a small valid scenario file into dir.
func writeScenario(t *testing.T, dir string) string {
	t.Helper()
	path := filepath.Join(dir, "scenario.json")
	spec := `{
  "name": "cli-test",
  "seed": 11,
  "model": "m",
  "alphabet": "abcd",
  "seq_len": 8,
  "seq_pool": 16,
  "rate_per_sec": 300,
  "duration_sec": 1,
  "batch_fraction": 0.2,
  "batch_sizes": [{"size": 4, "weight": 1}],
  "reload_period_sec": 0.5
}
`
	if err := os.WriteFile(path, []byte(spec), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestUsageErrors(t *testing.T) {
	cases := [][]string{
		{},
		{"-target", "http://x"},
		{"-scenario", "s.json"},
		{"-target", "http://x", "-scenario", "s.json", "stray-arg"},
		{"-no-such-flag"},
	}
	for _, args := range cases {
		var out, errb bytes.Buffer
		if code := run(args, &out, &errb); code != 2 {
			t.Errorf("run(%q) = %d, want 2\n%s", args, code, errb.String())
		}
	}
}

func TestRunWritesResultAndComparesBaseline(t *testing.T) {
	ts := httptest.NewServer(stubTarget())
	defer ts.Close()
	dir := t.TempDir()
	scenario := writeScenario(t, dir)
	outPath := filepath.Join(dir, "result.json")

	var out, errb bytes.Buffer
	code := run([]string{
		"-target", ts.URL, "-scenario", scenario, "-out", outPath,
		"-validate", "-wait-ready", "5s", "-v",
	}, &out, &errb)
	if code != 0 {
		t.Fatalf("run = %d\nstdout: %s\nstderr: %s", code, out.String(), errb.String())
	}
	if !strings.Contains(out.String(), "scenario cli-test:") {
		t.Fatalf("summary line missing: %s", out.String())
	}

	res, err := loadgen.ReadResult(outPath)
	if err != nil {
		t.Fatal(err)
	}
	if res.Scenario != "cli-test" || res.RequestsSent == 0 || res.StartedAt == "" {
		t.Fatalf("written result incomplete: %+v", res)
	}
	if errorTotal := res.ErrorRate; errorTotal != 0 {
		t.Fatalf("stub run should be error-free, got rate %v", errorTotal)
	}

	// Self-comparison passes: the same run is its own baseline.
	out.Reset()
	code = run([]string{
		"-target", ts.URL, "-scenario", scenario, "-baseline", outPath,
	}, &out, &errb)
	if code != 0 {
		t.Fatalf("self-baseline run = %d\n%s\n%s", code, out.String(), errb.String())
	}
	if !strings.Contains(out.String(), "verdict: pass") && !strings.Contains(out.String(), "verdict: improve") {
		t.Fatalf("expected pass/improve verdict:\n%s", out.String())
	}

	// An impossible baseline forces a regression and exit code 3.
	res.ThroughputRPS *= 100
	res.Overall.P50Ms = 0.001
	res.Overall.P99Ms = 0.001
	impossible := filepath.Join(dir, "impossible.json")
	if err := loadgen.WriteResult(impossible, res); err != nil {
		t.Fatal(err)
	}
	out.Reset()
	code = run([]string{
		"-target", ts.URL, "-scenario", scenario, "-baseline", impossible,
	}, &out, &errb)
	if code != 3 {
		t.Fatalf("impossible baseline run = %d, want 3\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "verdict: regress") {
		t.Fatalf("expected regress verdict:\n%s", out.String())
	}
}

func TestRunErrors(t *testing.T) {
	dir := t.TempDir()
	scenario := writeScenario(t, dir)

	var out, errb bytes.Buffer
	// Missing scenario file.
	if code := run([]string{"-target", "http://127.0.0.1:1", "-scenario", filepath.Join(dir, "nope.json")}, &out, &errb); code != 1 {
		t.Fatalf("missing scenario = %d, want 1", code)
	}
	// Unreachable target with -wait-ready fails fast.
	if code := run([]string{"-target", "http://127.0.0.1:1", "-scenario", scenario, "-wait-ready", "200ms"}, &out, &errb); code != 1 {
		t.Fatalf("unreachable target = %d, want 1", code)
	}
	// Missing baseline file after a good run.
	ts := httptest.NewServer(stubTarget())
	defer ts.Close()
	if code := run([]string{"-target", ts.URL, "-scenario", scenario, "-baseline", filepath.Join(dir, "nope.json")}, &out, &errb); code != 1 {
		t.Fatalf("missing baseline = %d, want 1", code)
	}
}
