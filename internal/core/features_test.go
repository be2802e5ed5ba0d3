package core

import (
	"math"
	"testing"

	"cluseq/internal/datagen"
	"cluseq/internal/pst"
	"cluseq/internal/seq"
)

func proteinTestDB(t *testing.T) *seq.Database {
	t.Helper()
	db, err := datagen.ProteinDB(datagen.ProteinConfig{
		Scale: 0.03, MinLength: 100, MaxLength: 250, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	return db
}

func proteinTestConfig() Config {
	return Config{
		InitialClusters: 10, Significance: 8, MinDistinct: 3,
		SimilarityThreshold: 1.5, MaxDepth: 6, MaxIterations: 25, Seed: 1,
	}
}

// TestAdaptiveSignificanceBootstrap verifies the motivation for the
// adaptive default: on motif-type data (local signal over a shared
// background), single-seed clusters can only attract members when the
// effective significance scales down, so the adaptive run must beat the
// paper's fixed-c run decisively.
func TestAdaptiveSignificanceBootstrap(t *testing.T) {
	db := proteinTestDB(t)
	adaptive, err := Cluster(db, proteinTestConfig())
	if err != nil {
		t.Fatal(err)
	}
	fixedCfg := proteinTestConfig()
	fixedCfg.FixedSignificance = true
	fixed, err := Cluster(db, fixedCfg)
	if err != nil {
		t.Fatal(err)
	}
	aRep := evaluate(t, db, adaptive)
	fRep := evaluate(t, db, fixed)
	if aRep.Accuracy <= fRep.Accuracy {
		t.Fatalf("adaptive (%.2f) should beat fixed significance (%.2f) on motif data",
			aRep.Accuracy, fRep.Accuracy)
	}
	if aRep.Accuracy < 0.6 {
		t.Fatalf("adaptive accuracy %.2f too low on motif data", aRep.Accuracy)
	}
}

func TestKeepTrees(t *testing.T) {
	db := testDB(t, 100, 2, 0, 71)
	cfg := testConfig()
	res, err := Cluster(db, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range res.Clusters {
		if c.Tree != nil {
			t.Fatal("trees must not be kept unless requested")
		}
	}
	cfg.KeepTrees = true
	res, err = Cluster(db, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.NumClusters() == 0 {
		t.Skip("no clusters formed")
	}
	bg := db.SymbolFrequencies()
	for _, c := range res.Clusters {
		if c.Tree == nil {
			t.Fatal("KeepTrees did not attach the tree")
		}
		if c.Tree.NumNodes() != c.TreeStats.Nodes {
			t.Fatalf("tree/stats mismatch: %d vs %d", c.Tree.NumNodes(), c.TreeStats.Nodes)
		}
		// A member must score at least the final threshold against its
		// own kept tree.
		m := db.Sequences[c.Members[0]]
		sim := c.Tree.Similarity(m.Symbols, bg)
		norm := sim.LogSim / float64(len(m.Symbols))
		if norm < math.Log(res.FinalThreshold)-1e-9 {
			t.Fatalf("member scores %.4f below final threshold %.4f against kept tree",
				math.Exp(norm), res.FinalThreshold)
		}
	}
}

func TestPrimaryAssignmentConsistent(t *testing.T) {
	db := testDB(t, 150, 3, 0.05, 73)
	res, err := Cluster(db, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Primary) != db.Len() {
		t.Fatalf("Primary has %d entries for %d sequences", len(res.Primary), db.Len())
	}
	memberSet := make([]map[int]bool, len(res.Clusters))
	for ci, c := range res.Clusters {
		memberSet[ci] = map[int]bool{}
		for _, m := range c.Members {
			memberSet[ci][m] = true
		}
	}
	for si, p := range res.Primary {
		if p == -1 {
			// Must not be a member of any cluster.
			for ci := range memberSet {
				if memberSet[ci][si] {
					t.Fatalf("sequence %d is a member of cluster %d but Primary = -1", si, ci)
				}
			}
			continue
		}
		if !memberSet[p][si] {
			t.Fatalf("sequence %d: Primary cluster %d does not contain it", si, p)
		}
	}
	// PrimaryClustering must partition exactly the clustered sequences.
	pc := res.PrimaryClustering()
	if err := pc.Validate(); err != nil {
		t.Fatal(err)
	}
	seen := map[int]bool{}
	for _, members := range pc.Members {
		for _, m := range members {
			if seen[m] {
				t.Fatalf("sequence %d appears in two primary clusters", m)
			}
			seen[m] = true
		}
	}
	if len(seen)+len(res.Unclustered) != db.Len() {
		t.Fatalf("primary (%d) + unclustered (%d) != N (%d)", len(seen), len(res.Unclustered), db.Len())
	}
}

func TestRefinePassesRun(t *testing.T) {
	db := proteinTestDB(t)
	cfg := proteinTestConfig()
	cfg.RefinePasses = 2
	res, err := Cluster(db, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Clustering().Validate(); err != nil {
		t.Fatal(err)
	}
	rep := evaluate(t, db, res)
	if rep.Accuracy < 0.5 {
		t.Fatalf("refined accuracy %.2f collapsed", rep.Accuracy)
	}
}

func TestInsertWholeRuns(t *testing.T) {
	db := testDB(t, 100, 2, 0, 79)
	cfg := testConfig()
	cfg.InsertWhole = true
	res, err := Cluster(db, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Clustering().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestValleyEstimatorOptions(t *testing.T) {
	db := testDB(t, 120, 3, 0, 83)
	for _, est := range []ValleyEstimator{ValleyAuto, ValleyOtsu, ValleyRegression} {
		cfg := testConfig()
		cfg.Valley = est
		res, err := Cluster(db, cfg)
		if err != nil {
			t.Fatalf("estimator %d: %v", est, err)
		}
		if err := res.Clustering().Validate(); err != nil {
			t.Fatalf("estimator %d: %v", est, err)
		}
	}
}

// TestValleyAutoUnsticksFromAbove is the regression test for the starved
// equilibrium: with t0 far above the data's separating level, ValleyAuto
// must still recover the planted clusters.
func TestValleyAutoUnsticksFromAbove(t *testing.T) {
	db := testDB(t, 240, 4, 0, 17)
	cfg := testConfig()
	cfg.SimilarityThreshold = 3
	res, err := Cluster(db, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rep := evaluate(t, db, res)
	if rep.Accuracy < 0.7 {
		t.Fatalf("from-above accuracy %.2f (threshold stuck at %.3f?)", rep.Accuracy, res.FinalThreshold)
	}
	unclustered := len(res.Unclustered)
	if unclustered > db.Len()/3 {
		t.Fatalf("%d/%d sequences stranded unclustered", unclustered, db.Len())
	}
}

func TestMergeConsolidation(t *testing.T) {
	db := testDB(t, 200, 3, 0.05, 107)
	cfg := testConfig()
	cfg.MergeConsolidation = true
	res, err := Cluster(db, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Clustering().Validate(); err != nil {
		t.Fatal(err)
	}
	rep := evaluate(t, db, res)
	if rep.Accuracy < 0.7 {
		t.Fatalf("merge-consolidation accuracy %.2f", rep.Accuracy)
	}
	if res.NumClusters() < 2 || res.NumClusters() > 6 {
		t.Fatalf("merge-consolidation found %d clusters, planted 3", res.NumClusters())
	}
}

func TestMergeIntoUnitBehaviour(t *testing.T) {
	// Direct unit test: a dismissed cluster must be absorbed by the
	// overlapping survivor — members unioned and tree counts summed.
	db := testDB(t, 30, 2, 0, 109)
	e := &engine{
		db:      db,
		cfg:     Config{MinDistinct: 3, MergeConsolidation: true, Significance: 5, MaxDepth: 4},
		treeCfg: pst.Config{AlphabetSize: db.Alphabet.Size(), MaxDepth: 4, Significance: 5, AdaptiveSignificance: true},
	}
	e.background = db.SymbolFrequencies()
	mk := func(id int, members ...int) *cluster {
		c := &cluster{id: id, members: map[int]bool{}, tree: e.newTree()}
		for _, m := range members {
			c.members[m] = true
			c.tree.Insert(db.Sequences[m].Symbols)
		}
		return c
	}
	big := mk(0, 1, 2, 3, 4, 5)
	covered := mk(1, 1, 2, 3)
	e.clusters = []*cluster{big, covered}
	bigSymbols := big.tree.TotalSymbols()
	coveredSymbols := covered.tree.TotalSymbols()

	if got := e.consolidate(); got != 1 {
		t.Fatalf("eliminated = %d, want 1", got)
	}
	if len(e.clusters) != 1 || e.clusters[0].id != 0 {
		t.Fatalf("survivor wrong: %+v", e.clusters)
	}
	if got := e.clusters[0].tree.TotalSymbols(); got != bigSymbols+coveredSymbols {
		t.Fatalf("tree not merged: %d symbols, want %d", got, bigSymbols+coveredSymbols)
	}
	for _, m := range []int{1, 2, 3, 4, 5} {
		if !e.clusters[0].members[m] {
			t.Fatalf("member %d lost in merge", m)
		}
	}
}

func TestShrinkageEstimatorRuns(t *testing.T) {
	db := testDB(t, 100, 2, 0, 89)
	cfg := testConfig()
	cfg.Shrinkage = 8
	cfg.FixedSignificance = false
	res, err := Cluster(db, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Clustering().Validate(); err != nil {
		t.Fatal(err)
	}
}
