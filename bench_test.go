// Benchmarks regenerating every table and figure of the paper's
// evaluation (§6) at the seconds-scale ScaleTiny workloads, plus
// micro-benchmarks of the substrate data structures and ablations of the
// design choices DESIGN.md calls out.
//
// Experiment benchmarks attach the measured clustering quality as custom
// metrics (acc%, prec%, rec%), so `go test -bench` output records both the
// cost and the quality side of each reproduction. Absolute times are
// machine-dependent; the shapes (who wins, how curves grow) are the
// reproduction targets — see EXPERIMENTS.md.
package cluseq_test

import (
	"fmt"
	"math/rand/v2"
	"slices"
	"testing"

	"cluseq"
	"cluseq/internal/core"
	"cluseq/internal/datagen"
	"cluseq/internal/distance"
	"cluseq/internal/eval"
	"cluseq/internal/experiments"
	"cluseq/internal/hmm"
	"cluseq/internal/pst"
	"cluseq/internal/qgram"
	"cluseq/internal/seq"
	"cluseq/internal/suffixtree"
)

// ---------------------------------------------------------------------
// One benchmark per paper table/figure.
// ---------------------------------------------------------------------

// BenchmarkTable2 runs the five-model comparison (CLUSEQ vs ED, EDBO,
// HMM, q-gram) on the simulated protein workload.
func BenchmarkTable2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunTable2(experiments.ScaleTiny, 1)
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			for _, row := range res.Rows {
				b.ReportMetric(100*row.Accuracy, row.Model+"_acc%")
			}
		}
	}
}

// BenchmarkTable3 reproduces the per-family precision/recall table.
func BenchmarkTable3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunTable3(experiments.ScaleTiny, 1)
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			sumP, sumR := 0.0, 0.0
			for _, r := range res.Rows {
				sumP += r.Precision
				sumR += r.Recall
			}
			n := float64(len(res.Rows))
			b.ReportMetric(100*sumP/n, "prec%")
			b.ReportMetric(100*sumR/n, "rec%")
		}
	}
}

// BenchmarkTable4 reproduces the language clustering experiment.
func BenchmarkTable4(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunTable4(experiments.ScaleTiny, 1)
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			for _, r := range res.Rows {
				b.ReportMetric(100*r.Recall, r.Language+"_rec%")
			}
		}
	}
}

// BenchmarkFigure4 sweeps the PST memory budget.
func BenchmarkFigure4(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunFigure4(experiments.ScaleTiny, 1)
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			first, last := res.Rows[0], res.Rows[len(res.Rows)-1]
			b.ReportMetric(100*first.Recall, "smallest_rec%")
			b.ReportMetric(100*last.Recall, "unlimited_rec%")
		}
	}
}

// BenchmarkFigure5 sweeps the seed sampling factor m/k.
func BenchmarkFigure5(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunFigure5(experiments.ScaleTiny, 1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable5 sweeps the initial cluster count.
func BenchmarkTable5(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunTable5(experiments.ScaleTiny, 1)
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			for _, r := range res.Rows {
				b.ReportMetric(float64(r.FinalK), fmt.Sprintf("k%d_final", r.InitialK))
			}
		}
	}
}

// BenchmarkTable6 sweeps the initial similarity threshold.
func BenchmarkTable6(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunTable6(experiments.ScaleTiny, 1)
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			for _, r := range res.Rows {
				b.ReportMetric(r.FinalT, fmt.Sprintf("t%.2f_final", r.InitialT))
			}
		}
	}
}

// BenchmarkOrderStudy compares the §6.3 processing orders.
func BenchmarkOrderStudy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunOrderStudy(experiments.ScaleTiny, 1)
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			for _, r := range res.Rows {
				b.ReportMetric(100*r.Accuracy, r.Order+"_acc%")
			}
		}
	}
}

// BenchmarkOutlierStudy sweeps the §6.1 outlier fraction (1–20%).
func BenchmarkOutlierStudy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunOutlierStudy(experiments.ScaleTiny, 1)
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			first, last := res.Rows[0], res.Rows[len(res.Rows)-1]
			b.ReportMetric(100*first.Accuracy, "acc1pct%")
			b.ReportMetric(100*last.Accuracy, "acc20pct%")
		}
	}
}

// BenchmarkFigure6 sweeps each §6.4 scalability axis as a sub-benchmark:
// clusters, sequences, length, alphabet.
func BenchmarkFigure6(b *testing.B) {
	for _, axis := range experiments.Figure6Axes {
		b.Run(axis, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := experiments.RunFigure6(experiments.ScaleTiny, axis, 1)
				if err != nil {
					b.Fatal(err)
				}
				if i == b.N-1 {
					first := res.Rows[0]
					last := res.Rows[len(res.Rows)-1]
					growth := last.Elapsed.Seconds() / first.Elapsed.Seconds()
					scale := float64(last.X) / float64(first.X)
					b.ReportMetric(growth/scale, "growth_per_size")
				}
			}
		})
	}
}

// ---------------------------------------------------------------------
// Substrate micro-benchmarks.
// ---------------------------------------------------------------------

func randomSymbols(n, alpha int, seed uint64) []seq.Symbol {
	rng := rand.New(rand.NewPCG(seed, seed^0xfeed))
	out := make([]seq.Symbol, n)
	for i := range out {
		out[i] = seq.Symbol(rng.IntN(alpha))
	}
	return out
}

// BenchmarkPSTInsert measures probabilistic suffix tree construction.
func BenchmarkPSTInsert(b *testing.B) {
	syms := randomSymbols(1000, 20, 1)
	b.SetBytes(int64(len(syms)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tree := pst.MustNew(pst.Config{AlphabetSize: 20, MaxDepth: 8, Significance: 30})
		tree.Insert(syms)
	}
}

// BenchmarkPSTInsertCapped measures the §4.4 insert into a tree held at
// its §5.1 cap, the stream engine's steady state: a 256 KiB cap over a
// 50-symbol alphabet (489 nodes), fed one planted family's sequences
// (100 to 300 symbols) after a warm-up that fills the tree, so every
// insert overflows the cap and prunes. PruneAuto admits the survivor-only
// insert; PruneExpectedVector always materializes every new context and
// runs the heap pass.
func BenchmarkPSTInsertCapped(b *testing.B) {
	const n = 50
	src := datagen.NewClusterSource(0, 1, n, 3)
	rng := rand.New(rand.NewPCG(3, 4))
	segs := make([][]seq.Symbol, 64)
	for i := range segs {
		segs[i] = src.Generate(100+rng.IntN(201), rng)
	}
	for _, strategy := range []pst.PruneStrategy{pst.PruneAuto, pst.PruneExpectedVector} {
		b.Run(strategy.String(), func(b *testing.B) {
			tree := pst.MustNew(pst.Config{AlphabetSize: n, MaxBytes: 256 << 10, Prune: strategy, PMin: 0.25 / n, AdaptiveSignificance: true})
			for _, s := range segs {
				tree.Insert(s)
			}
			symbols := 0
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s := segs[i%len(segs)]
				tree.Insert(s)
				symbols += len(s)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(symbols), "ns/symbol")
		})
	}
}

// BenchmarkPSTSimilarity measures the §4.3 similarity DP, the inner loop
// of the whole clustering algorithm.
func BenchmarkPSTSimilarity(b *testing.B) {
	tree := pst.MustNew(pst.Config{AlphabetSize: 20, MaxDepth: 8, Significance: 10, PMin: 0.01})
	for i := 0; i < 20; i++ {
		tree.Insert(randomSymbols(1000, 20, uint64(i+1)))
	}
	probe := randomSymbols(1000, 20, 99)
	bg := make([]float64, 20)
	for i := range bg {
		bg[i] = 0.05
	}
	b.SetBytes(int64(len(probe)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tree.Similarity(probe, bg)
	}
}

// BenchmarkSuffixTreeBuild measures Ukkonen construction.
func BenchmarkSuffixTreeBuild(b *testing.B) {
	syms := randomSymbols(5000, 4, 2)
	b.SetBytes(int64(len(syms)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr := suffixtree.New()
		tr.Add(syms)
	}
}

// BenchmarkSuffixTreeCount measures occurrence counting.
func BenchmarkSuffixTreeCount(b *testing.B) {
	syms := randomSymbols(5000, 4, 2)
	tr := suffixtree.New()
	tr.Add(syms)
	pattern := syms[100:110]
	tr.Count(pattern) // finalize outside the loop
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Count(pattern)
	}
}

// BenchmarkLevenshtein measures the ED baseline's inner kernel.
func BenchmarkLevenshtein(b *testing.B) {
	x := randomSymbols(300, 20, 3)
	y := randomSymbols(300, 20, 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		distance.Levenshtein(x, y)
	}
}

// BenchmarkBlockEdit measures the EDBO baseline's inner kernel.
func BenchmarkBlockEdit(b *testing.B) {
	x := randomSymbols(300, 20, 3)
	y := randomSymbols(300, 20, 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		distance.BlockEditDistance(x, y, distance.BlockConfig{})
	}
}

// BenchmarkHMMLogLikelihood measures the HMM baseline's scoring kernel
// (the cost footnote 3 of the paper complains about).
func BenchmarkHMMLogLikelihood(b *testing.B) {
	rng := rand.New(rand.NewPCG(7, 7))
	model := hmm.NewRandom(30, 20, rng) // the paper's 30 states
	obs := randomSymbols(300, 20, 5)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		model.LogLikelihood(obs)
	}
}

// BenchmarkQGramCosine measures the q-gram baseline's scoring kernel.
func BenchmarkQGramCosine(b *testing.B) {
	x := qgram.NewProfile(randomSymbols(300, 20, 3), 3)
	y := qgram.NewProfile(randomSymbols(300, 20, 4), 3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		qgram.Cosine(x, y)
	}
}

// ---------------------------------------------------------------------
// Ablations of the design choices DESIGN.md calls out.
// ---------------------------------------------------------------------

func clusterQuality(b *testing.B, db *seq.Database, cfg core.Config) float64 {
	b.Helper()
	res, err := core.Cluster(db, cfg)
	if err != nil {
		b.Fatal(err)
	}
	labels := make([]string, db.Len())
	for i, s := range db.Sequences {
		labels[i] = s.Label
	}
	rep, err := eval.Evaluate(res.PrimaryClustering(), labels)
	if err != nil {
		b.Fatal(err)
	}
	return rep.Accuracy
}

func ablationSyntheticDB(b *testing.B, seed uint64) *seq.Database {
	b.Helper()
	db, err := datagen.SyntheticDB(datagen.SyntheticConfig{
		NumSequences: 200, AvgLength: 100, AlphabetSize: 20,
		NumClusters: 5, OutlierFrac: 0.05, Seed: seed,
	})
	if err != nil {
		b.Fatal(err)
	}
	return db
}

// ablationProteinDB draws the protein families from seed+1, so run seed 1
// clusters the data seed 2 the ablations have always used.
func ablationProteinDB(b *testing.B, seed uint64) *seq.Database {
	b.Helper()
	db, err := datagen.ProteinDB(datagen.ProteinConfig{
		Scale: 0.04, MinLength: 100, MaxLength: 300, Seed: seed + 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	return db
}

// ablationLanguageDB is Table 4's tiny-scale language workload.
func ablationLanguageDB(b *testing.B, seed uint64) *seq.Database {
	b.Helper()
	db, err := datagen.LanguageDB(datagen.LanguageConfig{
		SentencesPerLanguage: 80, NoiseSentences: 15, Seed: seed,
	})
	if err != nil {
		b.Fatal(err)
	}
	return db
}

func ablationSyntheticConfig() core.Config {
	return core.Config{
		Significance: 20, MinDistinct: 3, SimilarityThreshold: 1.03,
		MaxDepth: 5, MaxIterations: 25, Seed: 1, FixedSignificance: true,
	}
}

func ablationProteinConfig() core.Config {
	return core.Config{
		InitialClusters: 10, Significance: 8, MinDistinct: 3,
		SimilarityThreshold: 1.5, MaxDepth: 6, MaxIterations: 30, Seed: 1,
	}
}

// ablationLanguageConfig is Table 4's tiny-scale configuration.
func ablationLanguageConfig() core.Config {
	return core.Config{
		InitialClusters: 1, Significance: 8, MinDistinct: 3,
		SimilarityThreshold: 2.5, MaxDepth: 4, MaxIterations: 30, Seed: 1,
	}
}

// BenchmarkAblationPruning compares the three §5.1 pruning strategies
// under a tight memory budget.
func BenchmarkAblationPruning(b *testing.B) {
	for _, v := range []struct {
		name     string
		strategy pst.PruneStrategy
	}{
		{"auto", pst.PruneAuto},
		{"min-count", pst.PruneMinCount},
		{"longest-label", pst.PruneLongestLabel},
		{"expected-vector", pst.PruneExpectedVector},
	} {
		b.Run(v.name, func(b *testing.B) {
			db := ablationSyntheticDB(b, 1)
			acc := 0.0
			for i := 0; i < b.N; i++ {
				cfg := ablationSyntheticConfig()
				cfg.MaxPSTBytes = 48 << 10
				cfg.Prune = v.strategy
				acc = clusterQuality(b, db, cfg)
			}
			b.ReportMetric(100*acc, "acc%")
		})
	}
}

// BenchmarkAblationSignificance compares the paper's fixed significance
// threshold against the adaptive scaling, on both workload archetypes.
func BenchmarkAblationSignificance(b *testing.B) {
	cases := []struct {
		name  string
		db    func(*testing.B, uint64) *seq.Database
		cfg   func() core.Config
		fixed bool
	}{
		{"synthetic/fixed", ablationSyntheticDB, ablationSyntheticConfig, true},
		{"synthetic/adaptive", ablationSyntheticDB, ablationSyntheticConfig, false},
		{"protein/fixed", ablationProteinDB, ablationProteinConfig, true},
		{"protein/adaptive", ablationProteinDB, ablationProteinConfig, false},
	}
	for _, v := range cases {
		b.Run(v.name, func(b *testing.B) {
			db := v.db(b, 1)
			acc := 0.0
			for i := 0; i < b.N; i++ {
				cfg := v.cfg()
				cfg.FixedSignificance = v.fixed
				acc = clusterQuality(b, db, cfg)
			}
			b.ReportMetric(100*acc, "acc%")
		})
	}
}

// BenchmarkAblationEstimator compares the PST's three probability
// estimators on the three workload archetypes: the paper's fixed
// significance, adaptive significance, and shrinkage at κ = 4, 8 and 16.
// An estimator can collapse a run to a few clusters at one seed and not
// at the next, so one run says little: each iteration clusters seeds
// 1–12, each seed driving both the data and the run, and reports the
// median, interquartile range and minimum accuracy over them.
func BenchmarkAblationEstimator(b *testing.B) {
	const seeds = 12
	workloads := []struct {
		name string
		db   func(*testing.B, uint64) *seq.Database
		cfg  func() core.Config
	}{
		{"synthetic", ablationSyntheticDB, ablationSyntheticConfig},
		{"protein", ablationProteinDB, ablationProteinConfig},
		{"language", ablationLanguageDB, ablationLanguageConfig},
	}
	estimators := []struct {
		name      string
		fixed     bool
		shrinkage float64
	}{
		{"fixed", true, 0},
		{"adaptive", false, 0},
		{"kappa4", false, 4},
		{"kappa8", false, 8},
		{"kappa16", false, 16},
	}
	for _, w := range workloads {
		for _, est := range estimators {
			b.Run(w.name+"/"+est.name, func(b *testing.B) {
				dbs := make([]*seq.Database, seeds)
				for i := range dbs {
					dbs[i] = w.db(b, uint64(i+1))
				}
				b.ResetTimer()
				accs := make([]float64, seeds)
				for i := 0; i < b.N; i++ {
					for j, db := range dbs {
						cfg := w.cfg()
						cfg.Seed = uint64(j + 1)
						cfg.FixedSignificance = est.fixed
						cfg.Shrinkage = est.shrinkage
						accs[j] = clusterQuality(b, db, cfg)
					}
				}
				slices.Sort(accs)
				b.ReportMetric(100*quantile(accs, 0.5), "median_acc%")
				b.ReportMetric(100*(quantile(accs, 0.75)-quantile(accs, 0.25)), "iqr_acc%")
				b.ReportMetric(100*accs[0], "min_acc%")
			})
		}
	}
}

// quantile interpolates linearly between the order statistics of sorted.
func quantile(sorted []float64, q float64) float64 {
	pos := q * float64(len(sorted)-1)
	lo := int(pos)
	if lo+1 >= len(sorted) {
		return sorted[lo]
	}
	return sorted[lo] + (pos-float64(lo))*(sorted[lo+1]-sorted[lo])
}

// BenchmarkAblationValley compares the threshold-valley estimators.
func BenchmarkAblationValley(b *testing.B) {
	for _, v := range []struct {
		name string
		est  core.ValleyEstimator
	}{
		{"auto", core.ValleyAuto},
		{"otsu", core.ValleyOtsu},
		{"regression", core.ValleyRegression},
	} {
		b.Run(v.name, func(b *testing.B) {
			db := ablationSyntheticDB(b, 1)
			acc := 0.0
			for i := 0; i < b.N; i++ {
				cfg := ablationSyntheticConfig()
				cfg.SimilarityThreshold = 3 // stress the from-above path
				cfg.Valley = v.est
				acc = clusterQuality(b, db, cfg)
			}
			b.ReportMetric(100*acc, "acc%")
		})
	}
}

// BenchmarkAblationUpdate compares the paper's best-segment tree update
// against whole-sequence insertion.
func BenchmarkAblationUpdate(b *testing.B) {
	for _, whole := range []bool{false, true} {
		name := "best-segment"
		if whole {
			name = "whole-sequence"
		}
		b.Run(name, func(b *testing.B) {
			db := ablationProteinDB(b, 1)
			acc := 0.0
			for i := 0; i < b.N; i++ {
				cfg := ablationProteinConfig()
				cfg.InsertWhole = whole
				acc = clusterQuality(b, db, cfg)
			}
			b.ReportMetric(100*acc, "acc%")
		})
	}
}

// BenchmarkAblationRefine measures the post-convergence refinement
// extension.
func BenchmarkAblationRefine(b *testing.B) {
	for _, passes := range []int{0, 2} {
		b.Run(fmt.Sprintf("passes=%d", passes), func(b *testing.B) {
			db := ablationProteinDB(b, 1)
			acc := 0.0
			for i := 0; i < b.N; i++ {
				cfg := ablationProteinConfig()
				cfg.RefinePasses = passes
				acc = clusterQuality(b, db, cfg)
			}
			b.ReportMetric(100*acc, "acc%")
		})
	}
}

// BenchmarkAblationConsolidation compares the paper's dismiss-covered
// consolidation against the merge extension.
func BenchmarkAblationConsolidation(b *testing.B) {
	cases := []struct {
		name string
		db   func(*testing.B, uint64) *seq.Database
		cfg  func() core.Config
	}{
		{"protein", ablationProteinDB, ablationProteinConfig},
		{"synthetic", ablationSyntheticDB, ablationSyntheticConfig},
	}
	for _, v := range cases {
		for _, merge := range []bool{false, true} {
			name := v.name + "/dismiss"
			if merge {
				name = v.name + "/merge"
			}
			b.Run(name, func(b *testing.B) {
				db := v.db(b, 1)
				acc := 0.0
				for i := 0; i < b.N; i++ {
					cfg := v.cfg()
					cfg.MergeConsolidation = merge
					acc = clusterQuality(b, db, cfg)
				}
				b.ReportMetric(100*acc, "acc%")
			})
		}
	}
}

// BenchmarkAblationWorkers measures the parallel reclustering extension
// (the paper's implementation is serial).
func BenchmarkAblationWorkers(b *testing.B) {
	for _, workers := range []int{1, 0} { // 0 = GOMAXPROCS
		name := fmt.Sprintf("workers=%d", workers)
		if workers == 0 {
			name = "workers=max"
		}
		b.Run(name, func(b *testing.B) {
			db := ablationSyntheticDB(b, 1)
			for i := 0; i < b.N; i++ {
				cfg := ablationSyntheticConfig()
				cfg.InitialClusters = 5
				cfg.Workers = workers
				clusterQuality(b, db, cfg)
			}
		})
	}
}

// BenchmarkRecluster measures the two-phase reclustering engine — the
// hot loop of the whole algorithm — crossing the version-stamped
// similarity cache (on/off) with worker counts (1/4). The cached runs
// skip every (sequence, cluster) pair whose tree did not change since
// the previous iteration; hit/miss totals from the iteration trace are
// attached as metrics so the cache's coverage is visible alongside its
// speedup. cmd/experiments -bench-recluster writes the same grid as
// JSON for the repo's perf trajectory.
func BenchmarkRecluster(b *testing.B) {
	db := ablationSyntheticDB(b, 1)
	for _, workers := range []int{1, 4} {
		for _, cacheOff := range []bool{false, true} {
			cache := "on"
			if cacheOff {
				cache = "off"
			}
			b.Run(fmt.Sprintf("cache=%s/workers=%d", cache, workers), func(b *testing.B) {
				hits, misses := 0, 0
				for i := 0; i < b.N; i++ {
					cfg := ablationSyntheticConfig()
					cfg.InitialClusters = 5
					cfg.Workers = workers
					cfg.CacheOff = cacheOff
					res, err := core.Cluster(db, cfg)
					if err != nil {
						b.Fatal(err)
					}
					hits, misses = 0, 0
					for _, tr := range res.Trace {
						hits += tr.CacheHits
						misses += tr.CacheMisses
					}
				}
				b.ReportMetric(float64(hits), "hits")
				b.ReportMetric(float64(misses), "misses")
			})
		}
	}
}

// BenchmarkClusterEndToEnd measures the public API on a mid-size workload,
// the headline number for downstream users.
func BenchmarkClusterEndToEnd(b *testing.B) {
	db, err := datagen.SyntheticDB(datagen.SyntheticConfig{
		NumSequences: 500, AvgLength: 150, AlphabetSize: 30,
		NumClusters: 8, OutlierFrac: 0.05, Seed: 3,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(db.TotalSymbols()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, err := cluseq.Cluster(db, cluseq.Options{
			Significance: 20, MinDistinct: 4, SimilarityThreshold: 1.05,
			MaxDepth: 5, Seed: 3, FixedSignificance: true,
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}
