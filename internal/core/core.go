// Package core implements the CLUSEQ clustering algorithm of paper §4: an
// iterative process that grows a collection of possibly overlapping
// sequence clusters, each summarized by a probabilistic suffix tree, and
// that adapts both the number of clusters (via successive new-cluster
// generation and cluster consolidation) and the similarity threshold t
// (via the histogram-valley heuristic) automatically.
package core

import (
	"fmt"
	"math"
	"math/rand/v2"

	"cluseq/internal/eval"
	"cluseq/internal/obs"
	"cluseq/internal/pst"
	"cluseq/internal/seq"
)

// OrderStrategy selects the order in which sequences are examined during
// each reclustering pass (studied in paper §6.3).
type OrderStrategy int

const (
	// OrderFixed processes sequences by database position every
	// iteration — the paper's default (it avoids random disk I/O on 2003
	// hardware and loses nothing measurable in quality).
	OrderFixed OrderStrategy = iota
	// OrderRandom draws a fresh permutation each iteration.
	OrderRandom
	// OrderClusterBased examines all sequences of one (previous-iteration)
	// cluster before moving to the next — shown by the paper to trap the
	// algorithm in local optima; provided for the §6.3 experiment.
	OrderClusterBased
)

// Config parameterizes a clustering run. The zero value picks the paper's
// defaults.
type Config struct {
	// InitialClusters is k, the number of clusters seeded in the first
	// iteration. Default 1 (the paper's default; §6.3 shows the final
	// count is insensitive to it).
	InitialClusters int
	// Significance is c, the occurrence count a context needs before its
	// probability entries are trusted, also reused as the consolidation
	// minimum (§4.5 "say, < c"). Default pst.DefaultSignificance (30).
	Significance int
	// SimilarityThreshold is the initial t (≥ 1 recommended). Default 1.5.
	// Starting above the data's separating level is safe — the §4.6
	// adjustment descends to it — while starting far below lets the first
	// clusters absorb everything and entrench as blobs before t rises.
	//
	// The engine compares thresholds against the per-symbol normalized
	// similarity SIM^(1/l): raw Equation-1 similarities are products of up
	// to l per-symbol ratios and grow exponentially with sequence length,
	// which makes a single t incomparable across lengths. The paper's own
	// reported thresholds (initial 1.0005–3, final 1.52 and 2.0 on
	// 1000-symbol sequences) are only consistent with this normalization.
	// Set RawSimilarity to compare un-normalized similarities instead.
	SimilarityThreshold float64
	// RawSimilarity disables per-symbol normalization of the similarity
	// threshold comparison (kept for the ablation benchmarks).
	RawSimilarity bool
	// FixedThreshold, when true, disables the §4.6 automatic adjustment
	// of t; the initial threshold is used throughout.
	FixedThreshold bool
	// MaxDepth is the PST short-memory bound L. Default pst.DefaultMaxDepth.
	MaxDepth int
	// MaxPSTBytes caps each cluster tree's memory (§5.1); 0 = unlimited.
	MaxPSTBytes int
	// Prune selects the PST eviction strategy.
	Prune pst.PruneStrategy
	// PMin enables adjusted probability estimation (§5.2). Zero selects
	// the adaptive default 0.25/|Σ|, which keeps sparsely-estimated deep
	// contexts from vetoing whole segments with near-zero probabilities.
	// Set negative to disable smoothing entirely.
	PMin float64
	// SampleFactor sets the seed-sampling pool to SampleFactor·k_n
	// unclustered sequences (§4.1; the paper uses and recommends 5).
	SampleFactor int
	// MinDistinct overrides the consolidation threshold; 0 = Significance.
	MinDistinct int
	// Shrinkage, when positive, switches probability estimation to the
	// PST's shrinkage estimator (see pst.Config.Shrinkage): estimates
	// blend each context node with its parent using κ pseudo-
	// observations. Zero (the default) uses the significance-threshold
	// estimator.
	Shrinkage float64
	// MergeConsolidation changes §4.5 consolidation from dismissing a
	// covered cluster to merging it into the overlapping cluster that
	// covers most of its members — the covered cluster's tree statistics
	// and members are absorbed instead of discarded. An extension,
	// ablated in BenchmarkAblationConsolidation.
	MergeConsolidation bool
	// RefinePasses runs this many batch refinement passes after the main
	// loop converges: each pass rebuilds every cluster's tree from
	// scratch over its current members' full sequences and then
	// recomputes membership at the final threshold. The paper's purely
	// incremental trees never forget segments absorbed from early
	// (possibly wrong) members; refinement removes that hysteresis and
	// measurably purifies clusters. Zero disables (the paper's exact
	// behaviour); RefinePasses is an extension this repository ablates in
	// BenchmarkAblationRefine.
	RefinePasses int
	// InsertWhole inserts a joining sequence's entire symbol string into
	// the cluster tree instead of only its best-scoring segment (§4.4).
	// The paper's segment-only update keeps trees small and focused on
	// the shared signal, but an ablation (BenchmarkAblationUpdate) shows
	// whole-sequence updates estimate cluster CPDs better when sequences
	// are short relative to the significance threshold.
	InsertWhole bool
	// FixedSignificance pins the significance threshold to Significance
	// even for freshly seeded single-sequence trees — the paper's exact
	// behaviour. By default the threshold scales with tree size
	// (effective c = 1 for a lone seed, growing to Significance), which
	// is what lets a new cluster attract sequences sharing only *local*
	// segments (conserved motifs) with its seed. Data whose clusters
	// differ globally/compositionally (like the paper's synthetic
	// PST-sampled workload) does better with the fixed threshold; data
	// whose signal is local (protein-like) requires the adaptive one.
	FixedSignificance bool
	// MaxIterations bounds the outer loop as a safety net. Default 60.
	MaxIterations int
	// Order is the §6.3 processing-order strategy.
	Order OrderStrategy
	// HistogramBuckets is the granularity of the §4.6 threshold histogram.
	// Default 100.
	HistogramBuckets int
	// Valley selects the estimator used to locate the similarity
	// histogram's valley during threshold adjustment.
	Valley ValleyEstimator
	// Seed drives all randomized choices (sampling, ordering). Default 1.
	Seed uint64
	// Workers bounds the parallelism of similarity evaluation; 0 uses
	// GOMAXPROCS, 1 forces the paper's serial behaviour. Reclustering
	// fans sequences out across a persistent worker pool in a read-only
	// scoring phase, then applies joins and tree updates serially in the
	// §6.3 examination order, so results are bit-identical across
	// worker counts (and to the serial algorithm).
	Workers int
	// CacheOff disables the cross-iteration similarity cache: every
	// (sequence, cluster) pair is re-scored on every reclustering pass.
	// The cache is exact — entries are stamped with the cluster tree's
	// version (see pst.Tree.Version) and any tree mutation invalidates
	// them — so this switch exists for benchmarking the cache's effect,
	// not for correctness.
	CacheOff bool
	// KeepTrees attaches each final cluster's probabilistic suffix tree
	// to its ClusterInfo, so callers can classify new sequences against
	// the discovered clusters (tree.Similarity) or persist the models
	// (tree.Save) without re-clustering.
	KeepTrees bool
	// Logf, when non-nil, receives one progress line per iteration.
	Logf func(format string, args ...any)
	// Obs, when non-nil, receives the run's metrics: per-phase timing
	// histograms, cache hit/miss and snapshot-compile counters, PST
	// size/prune gauges and counters, and worker-pool dispatch stats.
	// See DESIGN.md §10 for the metric catalogue. Nil disables metrics
	// at negligible residual cost (nil-handle no-ops).
	Obs *obs.Registry
	// Flight, when non-nil, records the run as job traces sharing one
	// trace ID: one cluster_iteration trace per outer iteration, with a
	// generate, score, apply, consolidate and (unless FixedThreshold)
	// threshold span, and one cluster_refine trace with a refine span
	// when RefinePasses > 0. Attach a Tracer to the recorder to write
	// them as JSONL.
	Flight *obs.Flight
}

func (c Config) withDefaults() (Config, error) {
	if c.InitialClusters == 0 {
		c.InitialClusters = 1
	}
	if c.InitialClusters < 1 {
		return c, fmt.Errorf("core: InitialClusters must be positive, got %d", c.InitialClusters)
	}
	if c.Significance == 0 {
		c.Significance = pst.DefaultSignificance
	}
	if c.Significance < 1 {
		return c, fmt.Errorf("core: Significance must be positive, got %d", c.Significance)
	}
	if c.SimilarityThreshold == 0 {
		c.SimilarityThreshold = 1.5
	}
	if c.SimilarityThreshold <= 0 {
		return c, fmt.Errorf("core: SimilarityThreshold must be positive, got %v", c.SimilarityThreshold)
	}
	if c.MaxDepth == 0 {
		c.MaxDepth = pst.DefaultMaxDepth
	}
	// PMin's adaptive default needs the alphabet size; Cluster resolves it.
	if c.PMin < 0 {
		c.PMin = 0
	}
	// Shrinkage is opt-in (zero = use the significance-threshold
	// estimator); negative normalizes to zero.
	if c.Shrinkage < 0 {
		c.Shrinkage = 0
	}
	if c.SampleFactor == 0 {
		c.SampleFactor = 5
	}
	if c.SampleFactor < 1 {
		return c, fmt.Errorf("core: SampleFactor must be positive, got %d", c.SampleFactor)
	}
	if c.MinDistinct == 0 {
		c.MinDistinct = c.Significance
	}
	if c.MaxIterations == 0 {
		c.MaxIterations = 60
	}
	if c.MaxIterations < 1 {
		return c, fmt.Errorf("core: MaxIterations must be positive, got %d", c.MaxIterations)
	}
	if c.HistogramBuckets == 0 {
		c.HistogramBuckets = 100
	}
	if c.HistogramBuckets < 3 {
		return c, fmt.Errorf("core: HistogramBuckets must be at least 3, got %d", c.HistogramBuckets)
	}
	return c, nil
}

// ValleyEstimator selects how the §4.6 threshold valley is located in the
// similarity histogram.
type ValleyEstimator int

const (
	// ValleyAuto (the default) uses the Otsu between-class split — robust
	// when the background mode has a soft tail — but, when the clustering
	// is starved (an iteration with no membership changes while a large
	// fraction of sequences remains unclustered, the signature of a
	// threshold stuck above the reach of fresh seed clusters), takes the
	// smaller of Otsu and the paper's regression-turn valley. The
	// regression valley hugs the right edge of the background mode, which
	// is exactly the growth-friendly bias that unsticks the run and
	// leaves cleanup to consolidation.
	ValleyAuto ValleyEstimator = iota
	// ValleyOtsu uses only the Otsu between-class split.
	ValleyOtsu
	// ValleyRegression uses only the paper's regression-slope turn
	// detector.
	ValleyRegression
)

// ClusterInfo describes one final cluster.
type ClusterInfo struct {
	// ID is a stable identifier assigned at creation, unique within the
	// run (not contiguous: consolidated clusters retire their IDs).
	ID int
	// Members holds database indices of the cluster's sequences.
	Members []int
	// SeedIndex is the database index of the sequence that founded the
	// cluster.
	SeedIndex int
	// TreeStats snapshots the cluster's probabilistic suffix tree.
	TreeStats pst.Stats
	// Tree is the cluster's probabilistic suffix tree, populated only
	// when Config.KeepTrees is set. Score candidate sequences with
	// Tree.Similarity against Database.SymbolFrequencies.
	Tree *pst.Tree
}

// IterationTrace records one outer-loop iteration for diagnostics and the
// sensitivity experiments.
type IterationTrace struct {
	NewClusters     int
	Consolidated    int
	Clusters        int // clusters alive at iteration end
	MembershipMoves int // sequences whose membership set changed
	Threshold       float64
	ValleyEstimate  float64 // t̂ of §4.6 (0 when no valley was found)
	Unclustered     int
	// CacheHits counts (sequence, cluster) pairs whose similarity was
	// reused from an earlier iteration because the cluster's tree had
	// not changed; CacheMisses counts the similarity evaluations the
	// pass actually performed (scoring phase plus apply-phase re-scores
	// after intra-pass tree inserts). Hits + misses can fall short of
	// sequences × clusters: empty sequences are skipped.
	CacheHits   int
	CacheMisses int
	// SnapshotCompiles counts the pst.Snapshot compilations performed
	// during the iteration — how often a cluster tree's mutation forced
	// the engine to refresh its compiled scoring snapshot.
	SnapshotCompiles int
}

// Result is the outcome of a clustering run.
type Result struct {
	// Clusters holds the final clusters; membership may overlap.
	Clusters []*ClusterInfo
	// Unclustered lists database indices of outliers (below-threshold
	// similarity to every cluster).
	Unclustered []int
	// Iterations is the number of outer iterations executed.
	Iterations int
	// FinalThreshold is t after automatic adjustment.
	FinalThreshold float64
	// Trace holds one entry per iteration.
	Trace []IterationTrace
	// Primary holds, for each sequence, the index (into Clusters) of its
	// best cluster — the member cluster of maximal similarity — or −1
	// when unclustered. Cluster membership itself may overlap
	// (Definition 2.1); Primary is the disjoint view used when reporting
	// precision/recall the way the paper's tables do.
	Primary []int
	n       int
}

// Clustering converts the result into the eval package's representation.
func (r *Result) Clustering() eval.Clustering {
	c := eval.Clustering{N: r.n, Members: make([][]int, len(r.Clusters))}
	for i, cl := range r.Clusters {
		c.Members[i] = append([]int(nil), cl.Members...)
	}
	return c
}

// NumClusters returns the number of final clusters.
func (r *Result) NumClusters() int { return len(r.Clusters) }

// PrimaryClustering returns the disjoint clustering induced by each
// sequence's best cluster.
func (r *Result) PrimaryClustering() eval.Clustering {
	c := eval.Clustering{N: r.n, Members: make([][]int, len(r.Clusters))}
	for i, p := range r.Primary {
		if p >= 0 {
			c.Members[p] = append(c.Members[p], i)
		}
	}
	return c
}

// Cluster runs CLUSEQ over the database and returns the discovered
// clusters. The database must be non-empty and valid.
func Cluster(db *seq.Database, cfg Config) (*Result, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	if db == nil || db.Len() == 0 {
		return nil, fmt.Errorf("core: empty database")
	}
	if err := db.Validate(); err != nil {
		return nil, err
	}
	if cfg.PMin == 0 {
		cfg.PMin = 0.25 / float64(db.Alphabet.Size())
	}
	// Check the one configuration every cluster tree shares, so a bad
	// estimator parameter fails the call instead of panicking the run.
	treeCfg := pst.Config{
		AlphabetSize:         db.Alphabet.Size(),
		MaxDepth:             cfg.MaxDepth,
		Significance:         cfg.Significance,
		MaxBytes:             cfg.MaxPSTBytes,
		Prune:                cfg.Prune,
		PMin:                 cfg.PMin,
		Shrinkage:            cfg.Shrinkage,
		AdaptiveSignificance: cfg.Shrinkage <= 0 && !cfg.FixedSignificance,
	}
	if _, err := pst.New(treeCfg); err != nil {
		return nil, err
	}
	e := &engine{
		db:      db,
		cfg:     cfg,
		treeCfg: treeCfg,
		rng:     rand.New(rand.NewPCG(cfg.Seed, cfg.Seed^0x636c7573)),
		thr: ThresholdAdjuster{
			LogT:    math.Log(cfg.SimilarityThreshold),
			Buckets: cfg.HistogramBuckets,
			Valley:  cfg.Valley,
			Sticky:  true,
		},
	}
	e.background = db.SymbolFrequencies()
	return e.run()
}

// Threshold clamp bounds. Similarities are raw products of per-symbol
// likelihood ratios, so legitimate in-cluster values reach e^60 and beyond
// for long sequences; the clamp exists only to keep t finite, not to bound
// its useful range.
const (
	minThreshold = 1e-300
	maxThreshold = 1e300
)

func clampThreshold(t float64) float64 {
	if t < minThreshold {
		return minThreshold
	}
	if t > maxThreshold {
		return maxThreshold
	}
	return t
}
