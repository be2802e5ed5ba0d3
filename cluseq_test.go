package cluseq_test

import (
	"strings"
	"testing"

	"cluseq"
	"cluseq/internal/datagen"
)

// TestPublicAPIEndToEnd drives the whole public surface the way the
// README's quick start does: build a database, cluster it, evaluate it,
// round-trip it through the text format.
func TestPublicAPIEndToEnd(t *testing.T) {
	db, err := datagen.SyntheticDB(datagen.SyntheticConfig{
		NumSequences: 150,
		AvgLength:    100,
		AlphabetSize: 10,
		NumClusters:  3,
		Seed:         5,
	})
	if err != nil {
		t.Fatal(err)
	}

	res, err := cluseq.Cluster(db, cluseq.Options{
		Significance:        12,
		MinDistinct:         5,
		SimilarityThreshold: 1.05,
		MaxDepth:            5,
		Seed:                3,
		// Synthetic clusters are globally distinct sources; the paper's
		// fixed significance threshold suits them best.
		FixedSignificance: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.NumClusters() < 2 || res.NumClusters() > 5 {
		t.Fatalf("found %d clusters, planted 3", res.NumClusters())
	}

	rep, err := cluseq.Evaluate(res, cluseq.Labels(db))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Accuracy < 0.7 {
		t.Fatalf("accuracy = %v", rep.Accuracy)
	}

	var buf strings.Builder
	if err := cluseq.WriteDatabase(&buf, db); err != nil {
		t.Fatal(err)
	}
	back, err := cluseq.ReadDatabase(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != db.Len() {
		t.Fatalf("round trip lost sequences: %d vs %d", back.Len(), db.Len())
	}
}

func TestPublicPSTAPI(t *testing.T) {
	a := cluseq.MustAlphabet("ab")
	tree, err := cluseq.NewPST(cluseq.PSTConfig{AlphabetSize: 2, Significance: 1, MaxDepth: 3})
	if err != nil {
		t.Fatal(err)
	}
	syms, err := a.Encode("abababab")
	if err != nil {
		t.Fatal(err)
	}
	tree.Insert(syms)
	sim := tree.Similarity(syms, []float64{0.5, 0.5})
	if !sim.Exceeds(1) {
		t.Fatalf("self-similarity %v should exceed 1", sim.Sim())
	}
}

func TestPublicAlphabetErrors(t *testing.T) {
	if _, err := cluseq.NewAlphabet(""); err == nil {
		t.Fatal("empty alphabet should fail")
	}
	a, err := cluseq.NewAlphabet("abc")
	if err != nil || a.Size() != 3 {
		t.Fatalf("NewAlphabet: %v, size %d", err, a.Size())
	}
}

func TestPublicEvaluateOverlapping(t *testing.T) {
	db, err := datagen.SyntheticDB(datagen.SyntheticConfig{
		NumSequences: 100, AvgLength: 80, AlphabetSize: 10, NumClusters: 2, Seed: 9,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := cluseq.Cluster(db, cluseq.Options{
		Significance: 10, MinDistinct: 4, SimilarityThreshold: 1.05,
		MaxDepth: 5, Seed: 2, FixedSignificance: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	prim, err := cluseq.Evaluate(res, cluseq.Labels(db))
	if err != nil {
		t.Fatal(err)
	}
	ovl, err := cluseq.EvaluateOverlapping(res, cluseq.Labels(db))
	if err != nil {
		t.Fatal(err)
	}
	// Overlapping accuracy can only be at least the primary accuracy.
	if ovl.Accuracy < prim.Accuracy-1e-12 {
		t.Fatalf("overlapping accuracy %v below primary %v", ovl.Accuracy, prim.Accuracy)
	}
}

func TestPublicClassifierLifecycle(t *testing.T) {
	db, err := datagen.SyntheticDB(datagen.SyntheticConfig{
		NumSequences: 120, AvgLength: 90, AlphabetSize: 10, NumClusters: 3, Seed: 12,
	})
	if err != nil {
		t.Fatal(err)
	}
	opts := cluseq.Options{
		Significance: 12, MinDistinct: 4, SimilarityThreshold: 1.05,
		MaxDepth: 5, Seed: 4, FixedSignificance: true, KeepTrees: true,
	}
	res, err := cluseq.Cluster(db, opts)
	if err != nil {
		t.Fatal(err)
	}
	clf, err := cluseq.NewClassifier(db, res, opts)
	if err != nil {
		t.Fatal(err)
	}
	var buf strings.Builder
	if err := clf.SaveBundle(&buf, cluseq.BundleOptions{}); err != nil {
		t.Fatal(err)
	}
	loaded, err := cluseq.LoadClassifier(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatal(err)
	}
	// A known member must classify into a cluster that contains it.
	target := res.Clusters[0].Members[0]
	a := loaded.Classify(db.Sequences[target].Symbols)
	if a.Cluster == -1 {
		t.Fatalf("known member classified as outlier: %+v", a)
	}
}

func TestPublicDatabaseBuilding(t *testing.T) {
	db := cluseq.NewDatabase(cluseq.MustAlphabet("xyz"))
	if err := db.AddString("s1", "lab", "xyzzy"); err != nil {
		t.Fatal(err)
	}
	if err := db.AddString("s2", "", "zzz"); err != nil {
		t.Fatal(err)
	}
	labels := cluseq.Labels(db)
	if len(labels) != 2 || labels[0] != "lab" || labels[1] != "" {
		t.Fatalf("Labels = %v", labels)
	}
}
