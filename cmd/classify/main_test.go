package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"cluseq"
	"cluseq/internal/datagen"
)

// trainModel clusters a small workload and saves its classifier bundle,
// returning the model path and the training database.
func trainModel(t *testing.T) (string, *cluseq.Database) {
	t.Helper()
	db, err := datagen.SyntheticDB(datagen.SyntheticConfig{
		NumSequences: 120, AvgLength: 90, AlphabetSize: 10,
		NumClusters: 3, Seed: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	opts := cluseq.Options{
		Significance: 12, MinDistinct: 4, SimilarityThreshold: 1.05,
		MaxDepth: 5, Seed: 8, FixedSignificance: true, KeepTrees: true,
	}
	res, err := cluseq.Cluster(db, opts)
	if err != nil {
		t.Fatal(err)
	}
	clf, err := cluseq.NewClassifier(db, res, opts)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "m.cluseq")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := clf.SaveBundle(f, cluseq.BundleOptions{}); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path, db
}

func TestClassifyEndToEnd(t *testing.T) {
	model, db := trainModel(t)
	var input strings.Builder
	if err := cluseq.WriteDatabase(&input, db.Subset([]int{0, 1, 2, 3, 4})); err != nil {
		t.Fatal(err)
	}
	var out, errOut strings.Builder
	code := run([]string{"-model", model}, strings.NewReader(input.String()), &out, &errOut)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errOut.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(lines) != 5 {
		t.Fatalf("got %d output lines, want 5:\n%s", len(lines), out.String())
	}
	clustered := 0
	for _, l := range lines {
		if strings.Contains(l, "cluster ") {
			clustered++
		}
	}
	if clustered < 3 {
		t.Fatalf("only %d/5 training members classified into clusters:\n%s", clustered, out.String())
	}
}

// TestClassifyWorkersDeterministic verifies that the -workers flag
// changes only the parallelism, never the output: serial and
// maximally-parallel runs must print byte-identical lines in input order.
func TestClassifyWorkersDeterministic(t *testing.T) {
	model, db := trainModel(t)
	var input strings.Builder
	if err := cluseq.WriteDatabase(&input, db); err != nil {
		t.Fatal(err)
	}
	outputs := make([]string, 2)
	for i, w := range []string{"1", "8"} {
		var out, errOut strings.Builder
		code := run([]string{"-model", model, "-workers", w},
			strings.NewReader(input.String()), &out, &errOut)
		if code != 0 {
			t.Fatalf("workers=%s: exit %d: %s", w, code, errOut.String())
		}
		outputs[i] = out.String()
	}
	if outputs[0] != outputs[1] {
		t.Fatalf("output differs between -workers 1 and -workers 8:\n--- serial ---\n%s--- parallel ---\n%s",
			outputs[0], outputs[1])
	}
	if got := strings.Count(outputs[0], "\n"); got != db.Len() {
		t.Fatalf("got %d output lines, want %d", got, db.Len())
	}
}

func TestClassifyErrors(t *testing.T) {
	var out, errOut strings.Builder
	if code := run(nil, strings.NewReader(""), &out, &errOut); code != 2 {
		t.Fatalf("missing -model: exit %d, want 2", code)
	}
	if code := run([]string{"-model", "/nonexistent"}, strings.NewReader(""), &out, &errOut); code != 1 {
		t.Fatalf("missing model file: exit %d, want 1", code)
	}
	// Garbage model file.
	bad := filepath.Join(t.TempDir(), "bad.model")
	if err := os.WriteFile(bad, []byte("not a model"), 0o644); err != nil {
		t.Fatal(err)
	}
	if code := run([]string{"-model", bad}, strings.NewReader(""), &out, &errOut); code != 1 {
		t.Fatalf("corrupt model: exit %d, want 1", code)
	}
}
