package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"cluseq"
	"cluseq/internal/datagen"
)

// writeTestDB renders a small labeled workload to a temp file and returns
// its path.
func writeTestDB(t *testing.T) string {
	t.Helper()
	db, err := datagen.SyntheticDB(datagen.SyntheticConfig{
		NumSequences: 120, AvgLength: 90, AlphabetSize: 10,
		NumClusters: 3, Seed: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	var buf strings.Builder
	if err := cluseq.WriteDatabase(&buf, db); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "db.txt")
	if err := writeFile(path, buf.String()); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestRunEndToEnd(t *testing.T) {
	path := writeTestDB(t)
	var out, errOut strings.Builder
	code := run([]string{"-c", "12", "-t", "1.05", "-depth", "5", "-fixed-c", path},
		strings.NewReader(""), &out, &errOut)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errOut.String())
	}
	got := out.String()
	for _, want := range []string{"clusters", "ground truth found", "accuracy"} {
		if !strings.Contains(got, want) {
			t.Fatalf("output missing %q:\n%s", want, got)
		}
	}
}

func TestRunStdinAndIDs(t *testing.T) {
	db := cluseq.NewDatabase(cluseq.MustAlphabet("ab"))
	for i := 0; i < 12; i++ {
		raw := strings.Repeat("ab", 20)
		if i%2 == 1 {
			raw = strings.Repeat("aabb", 10)
		}
		if err := db.AddString(strings.Repeat("x", i+1), "", raw); err != nil {
			t.Fatal(err)
		}
	}
	var buf strings.Builder
	if err := cluseq.WriteDatabase(&buf, db); err != nil {
		t.Fatal(err)
	}
	var out, errOut strings.Builder
	code := run([]string{"-c", "3", "-t", "1.2", "-ids"}, strings.NewReader(buf.String()), &out, &errOut)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errOut.String())
	}
	if strings.TrimSpace(out.String()) == "" {
		t.Fatal("-ids produced no output")
	}
}

func TestRunModelRoundTrip(t *testing.T) {
	path := writeTestDB(t)
	model := filepath.Join(t.TempDir(), "m.cluseq")
	var out, errOut strings.Builder
	code := run([]string{"-c", "12", "-t", "1.05", "-depth", "5", "-fixed-c", "-model", model, "-ids", path},
		strings.NewReader(""), &out, &errOut)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errOut.String())
	}
	f, err := openFile(model)
	if err != nil {
		t.Fatalf("model not written: %v", err)
	}
	defer f.Close()
	clf, err := cluseq.LoadClassifier(f)
	if err != nil {
		t.Fatalf("model unreadable: %v", err)
	}
	if clf.NumClusters() < 2 {
		t.Fatalf("model has %d clusters", clf.NumClusters())
	}
}

// TestRunTraceOut pins the -trace-out contract: every line of the
// output file is a JSON record, spans cover the clustering phases and
// carry the run's one trace ID, and the file ends with one metrics
// snapshot.
func TestRunTraceOut(t *testing.T) {
	path := writeTestDB(t)
	traceFile := filepath.Join(t.TempDir(), "trace.jsonl")
	var out, errOut strings.Builder
	code := run([]string{"-c", "12", "-t", "1.05", "-depth", "5", "-fixed-c", "-trace-out", traceFile, path},
		strings.NewReader(""), &out, &errOut)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errOut.String())
	}
	raw, err := os.ReadFile(traceFile)
	if err != nil {
		t.Fatalf("trace file not written: %v", err)
	}
	lines := strings.Split(strings.TrimRight(string(raw), "\n"), "\n")
	spans := map[string]int{}
	traceIDs := map[string]bool{}
	metricsRecords := 0
	for i, line := range lines {
		var rec struct {
			Type  string `json:"type"`
			Name  string `json:"name"`
			Attrs struct {
				TraceID string `json:"trace_id"`
			} `json:"attrs"`
			Metrics map[string]any `json:"metrics"`
		}
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("trace line %d is not valid JSON: %v\n%s", i+1, err, line)
		}
		switch rec.Type {
		case "span":
			spans[rec.Name]++
			traceIDs[rec.Attrs.TraceID] = true
		case "metrics":
			metricsRecords++
			if rec.Metrics["cluseq_engine_iterations_total"] == nil {
				t.Fatalf("metrics snapshot missing the iteration counter: %s", line)
			}
		default:
			t.Fatalf("unexpected record type %q on line %d", rec.Type, i+1)
		}
	}
	for _, phase := range []string{"generate", "score", "apply", "consolidate", "threshold"} {
		if spans[phase] == 0 {
			t.Errorf("no %q spans in trace", phase)
		}
	}
	if len(traceIDs) != 1 || traceIDs[""] {
		t.Errorf("spans carry trace IDs %v, want the run's one", traceIDs)
	}
	if metricsRecords != 1 {
		t.Errorf("metrics records = %d, want exactly 1 (final snapshot)", metricsRecords)
	}
	if lines[len(lines)-1] == "" || !strings.Contains(lines[len(lines)-1], `"type":"metrics"`) {
		t.Errorf("trace must end with the metrics snapshot, got: %s", lines[len(lines)-1])
	}
}

func TestRunErrors(t *testing.T) {
	var out, errOut strings.Builder
	if code := run([]string{"a", "b"}, strings.NewReader(""), &out, &errOut); code != 2 {
		t.Fatalf("two args: exit %d, want 2", code)
	}
	if code := run([]string{"/nonexistent/file"}, strings.NewReader(""), &out, &errOut); code != 1 {
		t.Fatalf("missing file: exit %d, want 1", code)
	}
	if code := run([]string{"-badflag"}, strings.NewReader(""), &out, &errOut); code != 2 {
		t.Fatalf("bad flag: exit %d, want 2", code)
	}
	// Invalid config surfaces as exit 1.
	if code := run([]string{"-k", "-5"}, strings.NewReader("> s\nab\n"), &out, &errOut); code != 1 {
		t.Fatalf("bad config: exit %d, want 1", code)
	}
}
