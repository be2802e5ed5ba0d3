package stream

import (
	"bytes"
	"fmt"
	"math"
	"math/rand/v2"
	"strings"
	"testing"

	"cluseq/internal/core"
	"cluseq/internal/datagen"
	"cluseq/internal/seq"
)

// streamTestConfig tunes the engine for the planted datagen workload the
// tests replay: small alphabet, shallow trees, fixed significance — the
// same regime the CLI e2e uses for synthetic data.
func streamTestConfig(t *testing.T, alphabet *seq.Alphabet) Config {
	t.Helper()
	return Config{
		Alphabet:            alphabet,
		SimilarityThreshold: 1.05,
		MaxDepth:            5,
		Significance:        12,
		FixedSignificance:   true,
		ConsolidateEvery:    64,
		Workers:             1,
	}
}

// syntheticStream builds the shuffled labeled stream shared by the
// determinism and accuracy tests.
func syntheticStream(t *testing.T, n int) (*seq.Database, []int) {
	t.Helper()
	db, err := datagen.SyntheticDB(datagen.SyntheticConfig{
		NumSequences: n,
		AvgLength:    80,
		AlphabetSize: 12,
		NumClusters:  4,
		OutlierFrac:  0.02,
		Seed:         7,
	})
	if err != nil {
		t.Fatalf("SyntheticDB: %v", err)
	}
	order := rand.New(rand.NewPCG(99, 7)).Perm(db.Len())
	return db, order
}

func TestIngestVerdicts(t *testing.T) {
	alphabet := seq.MustAlphabet("abcd")
	e, err := New(streamTestConfig(t, alphabet))
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	v := e.IngestString("abababab")
	if v.Status != StatusNewCluster || v.Cluster != 0 {
		t.Fatalf("first ingest = %+v, want new cluster 0", v)
	}
	// A repeat of the same pattern must join, not found a second cluster.
	for i := 0; i < 10; i++ {
		v = e.IngestString("abababababab")
	}
	if v.Status != StatusAccepted || v.Cluster != 0 {
		t.Fatalf("repeat ingest = %+v, want accepted into 0", v)
	}
	// Invalid and empty inputs are per-item rejections.
	if v := e.IngestString("abzz"); v.Status != StatusRejected || v.Cluster != -1 || v.Reason == "" {
		t.Fatalf("invalid-rune ingest = %+v, want rejection with reason", v)
	}
	if v := e.Ingest(nil); v.Status != StatusRejected {
		t.Fatalf("empty ingest = %+v, want rejection", v)
	}
	st := e.Stats()
	if st.Ingested != 13 || st.Rejected != 2 || st.Clusters == 0 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestClusterCapRejects founds maxClusters clusters, none of which any
// arrival can join, and checks that the next arrival is rejected instead
// of founding one more.
func TestClusterCapRejects(t *testing.T) {
	alphabet := seq.MustAlphabet("abcdefghijkl")
	cfg := streamTestConfig(t, alphabet)
	cfg.SimilarityThreshold = 1e9  // no arrival joins a cluster
	cfg.ConsolidateEvery = 1 << 20 // no pass merges or dissolves one
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	rng := rand.New(rand.NewPCG(3, 4))
	arrival := func() []seq.Symbol {
		syms := make([]seq.Symbol, 12)
		for i := range syms {
			syms[i] = seq.Symbol(rng.IntN(alphabet.Size()))
		}
		return syms
	}
	for i := 0; i < maxClusters; i++ {
		if v := e.Ingest(arrival()); v.Status != StatusNewCluster {
			t.Fatalf("arrival %d = %+v, want a new cluster", i, v)
		}
	}
	v := e.Ingest(arrival())
	if v.Status != StatusRejected || v.Cluster != -1 || !strings.Contains(v.Reason, fmt.Sprintf("cluster cap %d reached", maxClusters)) {
		t.Fatalf("arrival past the cap = %+v, want a cap rejection", v)
	}
	if st := e.Stats(); st.Clusters != maxClusters || st.NewClusters != maxClusters || st.Rejected != 1 {
		t.Fatalf("stats = %+v, want %d clusters and 1 rejection", st, maxClusters)
	}
}

func TestIngestBatchIndexAligned(t *testing.T) {
	alphabet := seq.MustAlphabet("abcd")
	e, err := New(streamTestConfig(t, alphabet))
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	batch := []string{"abababab", "", "abababab", "qqq", "cdcdcdcd"}
	out := e.IngestStrings(batch)
	if len(out) != len(batch) {
		t.Fatalf("got %d verdicts for %d items", len(out), len(batch))
	}
	// The invalid items sit at fixed indices; their verdicts must too.
	if out[1].Status != StatusRejected || out[3].Status != StatusRejected {
		t.Fatalf("rejections misaligned: %+v", out)
	}
	if out[0].Status != StatusNewCluster || out[2].Status != StatusAccepted {
		t.Fatalf("valid items misplaced: %+v", out)
	}
	if out[4].Status != StatusNewCluster {
		t.Fatalf("distinct pattern should found a cluster: %+v", out[4])
	}
}

func TestConsolidationMergesDuplicates(t *testing.T) {
	alphabet := seq.MustAlphabet("abcd")
	cfg := streamTestConfig(t, alphabet)
	cfg.ConsolidateEvery = 1000 // manual consolidation only
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	// Force two clusters over one pattern by seeding them directly, then
	// feed members; consolidation must collapse them.
	rng := rand.New(rand.NewPCG(3, 3))
	gen := func() string {
		b := make([]byte, 40)
		for i := range b {
			if rng.IntN(4) == 0 {
				b[i] = "abcd"[rng.IntN(2)]
			} else if i%2 == 0 {
				b[i] = 'a'
			} else {
				b[i] = 'b'
			}
		}
		return string(b)
	}
	for i := 0; i < 80; i++ {
		e.IngestString(gen())
	}
	before := e.Stats().Clusters
	e.ConsolidateNow()
	after := e.Stats().Clusters
	if after > before {
		t.Fatalf("consolidation grew clusters: %d -> %d", before, after)
	}
	if after == 0 {
		t.Fatal("consolidation dissolved everything")
	}
	if e.Stats().Consolidations != 1 {
		t.Fatalf("consolidations = %d, want 1", e.Stats().Consolidations)
	}
}

func TestPublishVersionsMonotonic(t *testing.T) {
	alphabet := seq.MustAlphabet("abcd")
	cfg := streamTestConfig(t, alphabet)
	cfg.ConsolidateEvery = 8
	var versions []uint64
	var lastClf *core.Classifier
	cfg.Publish = func(clf *core.Classifier, version uint64) {
		versions = append(versions, version)
		lastClf = clf
	}
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	for i := 0; i < 33; i++ {
		if i%2 == 0 {
			e.IngestString("abababababab")
		} else {
			e.IngestString("cdcdcdcdcdcd")
		}
	}
	if len(versions) == 0 {
		t.Fatal("no snapshots published")
	}
	for i := 1; i < len(versions); i++ {
		if versions[i] != versions[i-1]+1 {
			t.Fatalf("versions not consecutive: %v", versions)
		}
	}
	if lastClf == nil || lastClf.NumClusters() == 0 {
		t.Fatal("published classifier is empty")
	}
	// The published model must keep working while the engine mutates —
	// it is a frozen clone, not a view.
	frozen := lastClf
	a1, err := frozen.ClassifyString("abababababab")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		e.IngestString("abababababab")
	}
	a2, err := frozen.ClassifyString("abababababab")
	if err != nil {
		t.Fatal(err)
	}
	if a1.Cluster != a2.Cluster || a1.Similarity != a2.Similarity {
		t.Fatalf("published classifier changed under ingest: %+v vs %+v", a1, a2)
	}
	if st := e.Stats(); st.PublishedVersion != versions[len(versions)-1] {
		t.Fatalf("stats version %d != last published %d", st.PublishedVersion, versions[len(versions)-1])
	}
}

// TestResumeFromPersistedBundle pins the stream durability loop: a
// published snapshot survives a with-trees bundle round trip, seeds a
// fresh engine, and the resumed engine keeps the cluster models, the
// threshold, and the version counter.
func TestResumeFromPersistedBundle(t *testing.T) {
	alphabet := seq.MustAlphabet("abcd")
	cfg := streamTestConfig(t, alphabet)
	cfg.ConsolidateEvery = 8
	var lastClf *core.Classifier
	var lastVersion uint64
	cfg.Publish = func(clf *core.Classifier, version uint64) {
		lastClf, lastVersion = clf, version
	}
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		if i%2 == 0 {
			e.IngestString("abababababab")
		} else {
			e.IngestString("cdcdcdcdcdcd")
		}
	}
	e.ConsolidateNow()
	e.Close()
	if lastClf == nil || lastVersion == 0 {
		t.Fatal("no snapshot published")
	}

	// Persist and reload exactly as the daemon's -stream-persist does.
	var buf bytes.Buffer
	if err := lastClf.SaveBundle(&buf, core.BundleOptions{WithTrees: true, PublishedVersion: lastVersion}); err != nil {
		t.Fatal(err)
	}
	resumed, err := core.LoadClassifierBytes(buf.Bytes(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if resumed.PublishedVersion() != lastVersion {
		t.Fatalf("bundle version %d, want %d", resumed.PublishedVersion(), lastVersion)
	}

	cfg2 := streamTestConfig(t, alphabet)
	cfg2.ConsolidateEvery = 8
	cfg2.Resume = resumed
	var versions []uint64
	cfg2.Publish = func(clf *core.Classifier, version uint64) {
		versions = append(versions, version)
	}
	e2, err := New(cfg2)
	if err != nil {
		t.Fatal(err)
	}
	defer e2.Close()
	st := e2.Stats()
	if st.Clusters != resumed.NumClusters() {
		t.Fatalf("resumed with %d clusters, want %d", st.Clusters, resumed.NumClusters())
	}
	if st.PublishedVersion != lastVersion {
		t.Fatalf("resumed version %d, want %d", st.PublishedVersion, lastVersion)
	}
	wantThr := resumed.Info().Threshold
	if diff := st.Threshold - wantThr; diff > 1e-12 || diff < -1e-12 {
		t.Fatalf("resumed threshold %v, want %v", st.Threshold, wantThr)
	}
	// A sequence from a resumed cluster's family must be accepted into a
	// resumed cluster (ids 0..n-1), not found a duplicate.
	if v := e2.IngestString("abababababab"); v.Status != StatusAccepted || v.Cluster >= resumed.NumClusters() {
		t.Fatalf("resumed engine verdict %+v, want accepted into a resumed cluster", v)
	}
	for i := 0; i < 16; i++ {
		e2.IngestString("cdcdcdcdcdcd")
	}
	if len(versions) == 0 || versions[0] != lastVersion+1 {
		t.Fatalf("post-resume versions %v, want to continue from %d", versions, lastVersion+1)
	}
	// Resume must not have mutated the classifier the caller may still
	// be serving.
	if resumed.NumClusters() != st.Clusters {
		t.Fatal("resume mutated the source classifier")
	}
}

// TestNewRejectsBadEstimatorParams: New checks the cluster trees'
// configuration, so an estimator parameter no tree accepts fails
// construction instead of panicking on the first Ingest, under the
// engine mutex.
func TestNewRejectsBadEstimatorParams(t *testing.T) {
	alphabet := seq.MustAlphabet("abcd")
	for _, tc := range []struct {
		name string
		mod  func(*Config)
	}{
		{"PMin 0.5", func(c *Config) { c.PMin = 0.5 }},
		{"PMin NaN", func(c *Config) { c.PMin = math.NaN() }},
		{"Shrinkage +Inf", func(c *Config) { c.Shrinkage = math.Inf(1) }},
		{"Shrinkage NaN", func(c *Config) { c.Shrinkage = math.NaN() }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := streamTestConfig(t, alphabet)
			tc.mod(&cfg)
			e, err := New(cfg)
			if err == nil {
				defer e.Close()
				v := e.IngestString("abababab")
				t.Fatalf("New accepted the config; the first ingest returned %+v", v)
			}
		})
	}
}

// TestResumeRejectsUnusableBundles: treeless and mismatched snapshots
// must be refused at construction, not half-adopted.
func TestResumeRejectsUnusableBundles(t *testing.T) {
	alphabet := seq.MustAlphabet("abcd")
	cfg := streamTestConfig(t, alphabet)
	cfg.ConsolidateEvery = 4
	var lastClf *core.Classifier
	cfg.Publish = func(clf *core.Classifier, version uint64) { lastClf = clf }
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		e.IngestString("abababab")
	}
	e.ConsolidateNow()
	e.Close()

	// Treeless: round-trip without WithTrees strips the trees.
	var buf bytes.Buffer
	if err := lastClf.SaveBundle(&buf, core.BundleOptions{}); err != nil {
		t.Fatal(err)
	}
	treeless, err := core.LoadClassifierBytes(buf.Bytes(), nil)
	if err != nil {
		t.Fatal(err)
	}
	bad := streamTestConfig(t, alphabet)
	bad.Resume = treeless
	if _, err := New(bad); err == nil {
		t.Fatal("treeless Resume accepted")
	}

	// Alphabet mismatch.
	bad = streamTestConfig(t, seq.MustAlphabet("wxyz"))
	bad.Resume = lastClf
	if _, err := New(bad); err == nil {
		t.Fatal("alphabet-mismatched Resume accepted")
	}

	// PST shape mismatch would poison consolidation merges.
	bad = streamTestConfig(t, alphabet)
	bad.MaxDepth = cfg.MaxDepth + 3
	bad.Resume = lastClf
	if _, err := New(bad); err == nil {
		t.Fatal("depth-mismatched Resume accepted")
	}

	// A batch model that compares raw similarities: the stream compares
	// per-symbol normalized ones.
	db, _ := syntheticStream(t, 60)
	rawCfg := core.Config{
		RawSimilarity: true, KeepTrees: true, Workers: 1,
		MaxDepth: cfg.MaxDepth, Significance: cfg.Significance, FixedSignificance: true,
	}
	res, err := core.Cluster(db, rawCfg)
	if err != nil {
		t.Fatal(err)
	}
	rawClf, err := core.NewClassifier(db, res, rawCfg)
	if err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	if err := rawClf.SaveBundle(&buf, core.BundleOptions{WithTrees: true}); err != nil {
		t.Fatal(err)
	}
	rawLoaded, err := core.LoadClassifierBytes(buf.Bytes(), nil)
	if err != nil {
		t.Fatal(err)
	}
	bad = streamTestConfig(t, db.Alphabet)
	bad.Resume = rawLoaded
	if _, err := New(bad); err == nil || !strings.Contains(err.Error(), "raw") {
		t.Fatalf("raw-similarity Resume: err = %v, want a raw-similarity refusal", err)
	}
}

// modelBytes serializes every live cluster tree (in creation order) so
// two engines' final models can be compared bit-for-bit.
func modelBytes(t *testing.T, e *Engine) []byte {
	t.Helper()
	e.mu.Lock()
	defer e.mu.Unlock()
	var buf bytes.Buffer
	for _, c := range e.clusters {
		if err := c.tree.Save(&buf); err != nil {
			t.Fatalf("Save: %v", err)
		}
	}
	return buf.Bytes()
}

// TestDeterminismAcrossWorkers replays one stream at Workers 1 and 8,
// with and without shrinkage (whose compiles, like the others, run in
// the consolidation's compile fan-out), and requires the same verdicts,
// final models and stats.
func TestDeterminismAcrossWorkers(t *testing.T) {
	db, order := syntheticStream(t, 300)
	for _, shrinkage := range []float64{0, 8} {
		t.Run(fmt.Sprintf("shrinkage%v", shrinkage), func(t *testing.T) {
			run := func(workers int) ([]byte, []Verdict, Stats) {
				cfg := streamTestConfig(t, db.Alphabet)
				cfg.Workers = workers
				cfg.Shrinkage = shrinkage
				e, err := New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				defer e.Close()
				verdicts := make([]Verdict, 0, len(order))
				for _, i := range order {
					verdicts = append(verdicts, e.Ingest(db.Sequences[i].Symbols))
				}
				e.ConsolidateNow()
				return modelBytes(t, e), verdicts, e.Stats()
			}

			m1, v1, s1 := run(1)
			m8, v8, s8 := run(8)
			if !bytes.Equal(m1, m8) {
				t.Fatalf("final models differ between Workers=1 (%d bytes) and Workers=8 (%d bytes)", len(m1), len(m8))
			}
			for i := range v1 {
				if v1[i] != v8[i] {
					t.Fatalf("verdict %d differs: %+v vs %+v", i, v1[i], v8[i])
				}
			}
			if s1.Clusters != s8.Clusters || s1.Accepted != s8.Accepted ||
				s1.NewClusters != s8.NewClusters || s1.Rejected != s8.Rejected ||
				s1.Merges != s8.Merges || s1.Dissolves != s8.Dissolves ||
				s1.Threshold != s8.Threshold || s1.PSTNodes != s8.PSTNodes {
				t.Fatalf("stats differ: %+v vs %+v", s1, s8)
			}
		})
	}
}

func TestDeterminismSameSeedSameModel(t *testing.T) {
	db, order := syntheticStream(t, 200)
	run := func() []byte {
		cfg := streamTestConfig(t, db.Alphabet)
		e, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer e.Close()
		for _, i := range order {
			e.Ingest(db.Sequences[i].Symbols)
		}
		return modelBytes(t, e)
	}
	if a, b := run(), run(); !bytes.Equal(a, b) {
		t.Fatal("two identical replays produced different models")
	}
}

// TestScoresFollowConsolidatedBackground pins the background contract:
// after a consolidation moves the background, every live cluster must
// score against the new distribution — through its recompiled snapshot
// and through the tree-scan fallback once later inserts leave the
// snapshot stale — bit for bit as a clone of its tree scores against a
// copy of that distribution.
func TestScoresFollowConsolidatedBackground(t *testing.T) {
	db, order := syntheticStream(t, 400)
	cfg := streamTestConfig(t, db.Alphabet)
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	probes := make([][]seq.Symbol, 0, 30)
	for _, i := range order[:30] {
		probes = append(probes, db.Sequences[i].Symbols)
	}

	check := func(stage string) {
		t.Helper()
		e.mu.Lock()
		defer e.mu.Unlock()
		uniform := 1 / float64(len(e.background))
		moved := false
		for _, p := range e.background {
			moved = moved || p != uniform
		}
		if !moved {
			t.Fatalf("%s: the background never left uniform; the check would be vacuous", stage)
		}
		bg := append([]float64(nil), e.background...)
		stale := 0
		for _, c := range e.clusters {
			oracle := c.tree.Clone()
			if !c.snap.Valid(c.tree) {
				stale++
			}
			for _, p := range probes {
				want := oracle.Similarity(p, bg)
				if got := c.snap.Score(c.tree, p, e.background); got != want {
					t.Fatalf("%s: cluster %d engine score %+v, want %+v", stage, c.id, got, want)
				}
				if got := c.tree.Similarity(p, e.background); got != want {
					t.Fatalf("%s: cluster %d tree scan %+v, want %+v", stage, c.id, got, want)
				}
				if got := c.snap.Similarity(p); c.snap.Valid(c.tree) && got != want {
					t.Fatalf("%s: cluster %d snapshot %+v, want %+v", stage, c.id, got, want)
				}
			}
		}
		t.Logf("%s: %d clusters checked, %d with stale snapshots", stage, len(e.clusters), stale)
	}

	for _, i := range order[:360] {
		e.Ingest(db.Sequences[i].Symbols)
	}
	e.ConsolidateNow()
	check("after consolidation")
	for _, i := range order[360:] {
		e.Ingest(db.Sequences[i].Symbols)
	}
	check("after later inserts")
}
