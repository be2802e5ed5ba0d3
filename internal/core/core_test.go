package core

import (
	"math"
	"testing"

	"cluseq/internal/datagen"
	"cluseq/internal/eval"
	"cluseq/internal/seq"
)

// testDB builds a small synthetic database with well-separated planted
// clusters, scaled so the whole suite stays fast.
func testDB(t *testing.T, n, clusters int, outlierFrac float64, seed uint64) *seq.Database {
	t.Helper()
	db, err := datagen.SyntheticDB(datagen.SyntheticConfig{
		NumSequences: n,
		AvgLength:    120,
		AlphabetSize: 12,
		NumClusters:  clusters,
		Order:        3,
		OutlierFrac:  outlierFrac,
		Seed:         seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	return db
}

// testConfig scales the paper's parameters down to the test databases.
func testConfig() Config {
	return Config{
		InitialClusters:     1,
		Significance:        15,
		MinDistinct:         5,
		SimilarityThreshold: 1.05,
		MaxDepth:            5,
		MaxIterations:       30,
		Seed:                7,
		// The test workloads are synthetic globally-distinct sources,
		// which suit the paper's fixed significance threshold (see the
		// FixedSignificance docs).
		FixedSignificance: true,
	}
}

func labelsOf(db *seq.Database) []string {
	out := make([]string, db.Len())
	for i, s := range db.Sequences {
		out[i] = s.Label
	}
	return out
}

func evaluate(t *testing.T, db *seq.Database, res *Result) eval.Report {
	t.Helper()
	rep, err := eval.Evaluate(res.Clustering(), labelsOf(db))
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

func TestClusterRecoversPlantedClusters(t *testing.T) {
	db := testDB(t, 240, 4, 0, 11)
	res, err := Cluster(db, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	rep := evaluate(t, db, res)
	if res.NumClusters() < 3 || res.NumClusters() > 6 {
		t.Fatalf("found %d clusters, planted 4 (trace: %+v)", res.NumClusters(), res.Trace)
	}
	if rep.Accuracy < 0.8 {
		t.Fatalf("accuracy = %v, want ≥ 0.8 (report %+v)", rep.Accuracy, rep)
	}
	if res.Iterations >= testConfig().MaxIterations {
		t.Fatalf("did not converge within %d iterations", res.Iterations)
	}
}

func TestClusterInitialKInsensitive(t *testing.T) {
	// Table 5's property: the final cluster count is driven by the data,
	// not the initial k.
	db := testDB(t, 240, 4, 0, 13)
	counts := map[int]int{}
	for _, k := range []int{1, 4, 10} {
		cfg := testConfig()
		cfg.InitialClusters = k
		res, err := Cluster(db, cfg)
		if err != nil {
			t.Fatal(err)
		}
		counts[k] = res.NumClusters()
		rep := evaluate(t, db, res)
		if rep.Accuracy < 0.7 {
			t.Fatalf("k=%d: accuracy = %v", k, rep.Accuracy)
		}
	}
	for k, c := range counts {
		if c < 3 || c > 7 {
			t.Fatalf("k=%d converged to %d clusters (all: %v)", k, c, counts)
		}
	}
}

func TestClusterThresholdAdjusts(t *testing.T) {
	// Table 6's property: very different initial t converge to workable
	// thresholds and comparable quality.
	db := testDB(t, 240, 4, 0, 17)
	for _, t0 := range []float64{1.05, 1.5, 3} {
		cfg := testConfig()
		cfg.SimilarityThreshold = t0
		res, err := Cluster(db, cfg)
		if err != nil {
			t.Fatal(err)
		}
		rep := evaluate(t, db, res)
		if rep.Accuracy < 0.7 {
			t.Fatalf("t0=%v: accuracy = %v (final t %v)", t0, rep.Accuracy, res.FinalThreshold)
		}
		if res.FinalThreshold <= 0 {
			t.Fatalf("t0=%v: final threshold %v", t0, res.FinalThreshold)
		}
	}
}

func TestClusterFixedThreshold(t *testing.T) {
	db := testDB(t, 120, 2, 0, 19)
	cfg := testConfig()
	cfg.FixedThreshold = true
	cfg.SimilarityThreshold = 1.7
	res, err := Cluster(db, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.FinalThreshold != 1.7 {
		t.Fatalf("fixed threshold moved: %v", res.FinalThreshold)
	}
	for _, tr := range res.Trace {
		if tr.Threshold != 1.7 {
			t.Fatalf("threshold changed mid-run: %+v", tr)
		}
	}
}

func TestClusterOutliersStayOut(t *testing.T) {
	db := testDB(t, 240, 3, 0.15, 23)
	cfg := testConfig()
	res, err := Cluster(db, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rep := evaluate(t, db, res)
	if rep.Accuracy < 0.7 {
		t.Fatalf("accuracy with outliers = %v", rep.Accuracy)
	}
	// Most planted outliers (empty label) must remain unclustered.
	outlierTotal, outlierOut := 0, 0
	inCluster := make(map[int]bool)
	for _, c := range res.Clusters {
		for _, m := range c.Members {
			inCluster[m] = true
		}
	}
	for i, s := range db.Sequences {
		if s.Label == "" {
			outlierTotal++
			if !inCluster[i] {
				outlierOut++
			}
		}
	}
	if outlierTotal == 0 {
		t.Fatal("test setup: no outliers planted")
	}
	if frac := float64(outlierOut) / float64(outlierTotal); frac < 0.6 {
		t.Fatalf("only %.0f%% of outliers stayed unclustered", 100*frac)
	}
}

func TestClusterDeterministicAcrossWorkers(t *testing.T) {
	db := testDB(t, 120, 3, 0.05, 29)
	cfg := testConfig()
	cfg.Workers = 1
	r1, err := Cluster(db, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Workers = 8
	r8, err := Cluster(db, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r1.NumClusters() != r8.NumClusters() || r1.Iterations != r8.Iterations {
		t.Fatalf("parallelism changed the outcome: %d/%d clusters, %d/%d iterations",
			r1.NumClusters(), r8.NumClusters(), r1.Iterations, r8.Iterations)
	}
	c1, c8 := r1.Clustering(), r8.Clustering()
	a1, a8 := c1.Assignments(), c8.Assignments()
	for i := range a1 {
		if a1[i] != a8[i] {
			t.Fatalf("assignment differs at %d: %d vs %d", i, a1[i], a8[i])
		}
	}
}

func TestClusterOrderStrategiesRun(t *testing.T) {
	db := testDB(t, 120, 3, 0, 31)
	for _, order := range []OrderStrategy{OrderFixed, OrderRandom, OrderClusterBased} {
		cfg := testConfig()
		cfg.Order = order
		res, err := Cluster(db, cfg)
		if err != nil {
			t.Fatalf("order %d: %v", order, err)
		}
		if err := res.Clustering().Validate(); err != nil {
			t.Fatalf("order %d: invalid clustering: %v", order, err)
		}
	}
}

func TestClusterMemoryCappedPSTs(t *testing.T) {
	db := testDB(t, 160, 3, 0, 37)
	cfg := testConfig()
	cfg.MaxPSTBytes = 64 * 1024
	res, err := Cluster(db, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range res.Clusters {
		if c.TreeStats.EstimatedBytes > cfg.MaxPSTBytes {
			t.Fatalf("cluster %d tree %d bytes exceeds cap %d",
				c.ID, c.TreeStats.EstimatedBytes, cfg.MaxPSTBytes)
		}
	}
	rep := evaluate(t, db, res)
	if rep.Accuracy < 0.6 {
		t.Fatalf("capped-PST accuracy = %v", rep.Accuracy)
	}
}

func TestClusterConfigValidation(t *testing.T) {
	db := testDB(t, 20, 2, 0, 41)
	bad := []Config{
		{InitialClusters: -1},
		{Significance: -2},
		{SimilarityThreshold: -1},
		{SampleFactor: -1},
		{MaxIterations: -1},
		{HistogramBuckets: 2},
		// Estimator parameters no cluster tree accepts: an error, not a
		// panic inside the run (PMin ≥ 1/n) or an empty result.
		{PMin: 0.5},
		{PMin: math.NaN()},
		{Shrinkage: math.Inf(1)},
		{Shrinkage: math.NaN()},
	}
	for i, cfg := range bad {
		if _, err := Cluster(db, cfg); err == nil {
			t.Errorf("case %d (%+v): want error", i, cfg)
		}
	}
	// A negative κ still means the paper's estimator.
	if _, err := Cluster(db, Config{Shrinkage: -1}); err != nil {
		t.Errorf("negative shrinkage rejected: %v", err)
	}
	if _, err := Cluster(nil, Config{}); err == nil {
		t.Error("nil database should fail")
	}
	if _, err := Cluster(seq.NewDatabase(seq.MustAlphabet("ab")), Config{}); err == nil {
		t.Error("empty database should fail")
	}
}

func TestClusterInvalidDatabase(t *testing.T) {
	db := seq.NewDatabase(seq.MustAlphabet("ab"))
	db.Add(&seq.Sequence{ID: "bad", Symbols: []seq.Symbol{9}})
	if _, err := Cluster(db, Config{}); err == nil {
		t.Error("out-of-range symbols should fail")
	}
}

func TestClusterHandlesEmptySequences(t *testing.T) {
	db := testDB(t, 60, 2, 0, 43)
	db.Add(&seq.Sequence{ID: "empty"})
	res, err := Cluster(db, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	// The empty sequence can never reach any threshold; it must be
	// reported unclustered.
	emptyIdx := db.Len() - 1
	for _, c := range res.Clusters {
		for _, m := range c.Members {
			if m == emptyIdx {
				t.Fatal("empty sequence joined a cluster")
			}
		}
	}
}

func TestClusterSingleSequence(t *testing.T) {
	db := seq.NewDatabase(seq.MustAlphabet("ab"))
	if err := db.AddString("only", "x", "abababab"); err != nil {
		t.Fatal(err)
	}
	cfg := testConfig()
	cfg.MinDistinct = 1
	res, err := Cluster(db, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.NumClusters() > 1 {
		t.Fatalf("one sequence made %d clusters", res.NumClusters())
	}
}

func TestClusterTraceConsistency(t *testing.T) {
	db := testDB(t, 120, 3, 0.05, 47)
	res, err := Cluster(db, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Trace) != res.Iterations {
		t.Fatalf("trace has %d entries for %d iterations", len(res.Trace), res.Iterations)
	}
	last := res.Trace[len(res.Trace)-1]
	if last.Clusters != res.NumClusters() {
		t.Fatalf("final trace says %d clusters, result has %d", last.Clusters, res.NumClusters())
	}
	if last.Unclustered != len(res.Unclustered) {
		t.Fatalf("final trace says %d unclustered, result has %d", last.Unclustered, len(res.Unclustered))
	}
	if math.Abs(last.Threshold-res.FinalThreshold) > 1e-12 {
		t.Fatalf("final trace threshold %v != result %v", last.Threshold, res.FinalThreshold)
	}
}

func TestClusterOverlappingMembershipAllowed(t *testing.T) {
	// Two planted clusters plus sequences explicitly drawn half from each
	// source: the model must allow a sequence to sit in both clusters.
	db := testDB(t, 160, 2, 0, 53)
	src0 := datagen.NewClusterSource(0, 53, 12, 3)
	src1 := datagen.NewClusterSource(1, 53, 12, 3)
	// Hybrids: first half from src0, second from src1.
	rng := newTestRand(99)
	for i := 0; i < 10; i++ {
		a := src0.Generate(60, rng)
		b := src1.Generate(60, rng)
		db.Add(&seq.Sequence{ID: "hyb" + string(rune('0'+i)), Symbols: append(a, b...)})
	}
	res, err := Cluster(db, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Clustering().Validate(); err != nil {
		t.Fatal(err)
	}
	// At least verify the run completes and hybrids join something: each
	// hybrid half matches one source strongly.
	joined := 0
	inCluster := map[int]int{}
	for _, c := range res.Clusters {
		for _, m := range c.Members {
			inCluster[m]++
		}
	}
	for i := db.Len() - 10; i < db.Len(); i++ {
		if inCluster[i] > 0 {
			joined++
		}
	}
	if joined < 5 {
		t.Fatalf("only %d/10 hybrid sequences joined any cluster", joined)
	}
}
