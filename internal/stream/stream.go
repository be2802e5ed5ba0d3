// Package stream implements incremental CLUSEQ clustering over an
// unbounded sequence stream. Where package core clusters a fixed
// database by iterating to convergence, this engine absorbs sequences
// one at a time (or in small batches): each arrival is scored against
// every live cluster's probabilistic suffix tree, joins the best
// cluster whose similarity clears the threshold (inserting its
// best-scoring segment, §4.4), or founds a new cluster when none does
// (§4.1 degenerates to seeding from the arrival itself). Periodic
// consolidation passes — every ConsolidateEvery ingests, and optionally
// on a wall-clock flush for idle streams — merge redundant clusters
// (§4.5), dissolve stillborn ones, re-adjust the similarity threshold
// from the recent-similarity histogram (§4.6), refresh the background
// distribution from the running symbol counts, and publish an
// immutable, version-stamped core.Classifier snapshot for serving.
//
// Concurrency contract: Ingest, IngestBatch, and Stats may be called
// from any number of goroutines; one mutex serializes all mutation, so
// the final cluster models depend only on the arrival order the engine
// observes, never on scheduling. Workers parallelism is applied only
// inside a single ingest's scoring fan-out (index-partitioned writes),
// so results are bit-identical at any worker count. Readers never see
// engine internals: they classify against the published snapshots,
// which are deep copies (pst.Tree.Clone) frozen at publication.
package stream

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sync"
	"time"

	"cluseq/internal/core"
	"cluseq/internal/obs"
	"cluseq/internal/pool"
	"cluseq/internal/pst"
	"cluseq/internal/seq"
)

// Config parameterizes a streaming engine. The zero value of every
// field except Alphabet picks a sensible default.
type Config struct {
	// Alphabet encodes incoming sequences and is carried into every
	// published classifier. Required.
	Alphabet *seq.Alphabet
	// SimilarityThreshold is the initial t (see core.Config), compared
	// against per-symbol normalized similarities. Default 1.5.
	SimilarityThreshold float64
	// MaxDepth, Significance, MaxPSTBytes, Prune, PMin, Shrinkage, and
	// FixedSignificance parameterize the per-cluster suffix trees exactly
	// as in core.Config. MaxPSTBytes is the §5.1 memory cap, enforced by
	// the deterministic pruner on every insert.
	MaxDepth          int
	Significance      int
	MaxPSTBytes       int
	Prune             pst.PruneStrategy
	PMin              float64
	Shrinkage         float64
	FixedSignificance bool
	// ConsolidateEvery is the consolidation cadence in ingests: after
	// every ConsolidateEvery arrivals the engine merges, dissolves,
	// re-thresholds, and publishes. Count-based so a replayed stream
	// consolidates at identical points. Default 256.
	ConsolidateEvery int
	// FlushInterval, when positive, additionally consolidates on a
	// wall-clock timer whenever ingests have arrived since the last pass,
	// so an idle stream still publishes its tail. Wall-clock triggers are
	// inherently schedule-dependent; leave zero for deterministic replay.
	FlushInterval time.Duration
	// DissolveAfter is the dissolve grace period in ingests: a cluster
	// that has absorbed fewer than two sequences this long after its
	// founding is dissolved at consolidation. Default 2·ConsolidateEvery
	// (a stillborn cluster survives roughly two consolidations to
	// attract members).
	DissolveAfter int
	// MergeFraction is the coverage level at which a cluster is absorbed
	// by a larger one: when at least this fraction of the smaller
	// cluster's reservoir clears the larger cluster's threshold, the
	// trees are merged (pst.Tree.Merge). Default 0.6.
	MergeFraction float64
	// Workers bounds the scoring fan-out parallelism within one ingest;
	// 0 uses GOMAXPROCS, 1 forces serial scoring. Any value produces
	// bit-identical cluster models.
	Workers int
	// Resume, when non-nil, seeds the engine from a previously published
	// snapshot instead of starting empty: its trees (the bundle must
	// have been saved with core.BundleOptions.WithTrees) become the
	// initial clusters, its background and threshold carry over, and
	// version numbering continues from its PublishedVersion so a
	// restarted daemon never republishes a stale version number. The
	// classifier itself is not mutated — the engine clones the trees —
	// so the caller may keep serving it. Symbol counts are not
	// persisted: the background holds until fresh stream counts replace
	// it at the first consolidation.
	Resume *core.Classifier
	// Publish, when non-nil, receives each consolidation's frozen
	// classifier together with its monotonically increasing version.
	// Called under the engine mutex — implementations must not call back
	// into the engine and should be cheap (an atomic pointer swap; see
	// registry.Publish).
	Publish func(clf *core.Classifier, version uint64)
	// Obs, when non-nil, receives the stream metrics (see DESIGN.md §13).
	Obs *obs.Registry
	// Flight, when non-nil, records each consolidation as a
	// stream_consolidate job trace with stream_compile (one per compile
	// fan-out), stream_merge, stream_threshold and stream_publish spans.
	// A pass triggered by a traced ingest joins that request's trace as
	// its child. Share the server's recorder to see both in
	// GET /debug/traces.
	Flight *obs.Flight
	// Logf, when non-nil, receives one line per consolidation.
	Logf func(format string, args ...any)
}

func (c Config) withDefaults() (Config, error) {
	if c.Alphabet == nil {
		return c, fmt.Errorf("stream: Config.Alphabet is required")
	}
	if c.SimilarityThreshold == 0 {
		c.SimilarityThreshold = 1.5
	}
	if c.SimilarityThreshold <= 0 {
		return c, fmt.Errorf("stream: SimilarityThreshold must be positive, got %v", c.SimilarityThreshold)
	}
	if c.MaxDepth == 0 {
		c.MaxDepth = pst.DefaultMaxDepth
	}
	if c.Significance == 0 {
		c.Significance = pst.DefaultSignificance
	}
	if c.Significance < 1 {
		return c, fmt.Errorf("stream: Significance must be positive, got %d", c.Significance)
	}
	if c.PMin == 0 {
		c.PMin = 0.25 / float64(c.Alphabet.Size())
	}
	if c.PMin < 0 {
		c.PMin = 0
	}
	if c.Shrinkage < 0 {
		c.Shrinkage = 0
	}
	if c.ConsolidateEvery == 0 {
		c.ConsolidateEvery = 256
	}
	if c.ConsolidateEvery < 1 {
		return c, fmt.Errorf("stream: ConsolidateEvery must be positive, got %d", c.ConsolidateEvery)
	}
	if c.DissolveAfter == 0 {
		c.DissolveAfter = 2 * c.ConsolidateEvery
	}
	if c.MergeFraction == 0 {
		c.MergeFraction = 0.6
	}
	if c.MergeFraction < 0 || c.MergeFraction > 1 {
		return c, fmt.Errorf("stream: MergeFraction must be in [0, 1], got %v", c.MergeFraction)
	}
	return c, nil
}

const (
	// maxClusters bounds the live cluster count: an arrival that clears
	// no threshold once the cap is reached is rejected instead of
	// founding a cluster. A memory backstop, not a tuning knob:
	// consolidation keeps real workloads far below it.
	maxClusters = 1024
	// minClusterSize is the §4.5-style support floor: a cluster still
	// smaller than this Config.DissolveAfter ingests past its founding is
	// dissolved at consolidation.
	minClusterSize = 2
	// reservoirSize bounds the per-cluster ring of recent member
	// sequences kept for merge decisions.
	reservoirSize = 32
	// simWindow bounds the sliding window of recent sequence-cluster
	// log-similarities feeding the §4.6 histogram.
	simWindow = 4096
)

// Status classifies one ingest outcome.
type Status string

const (
	// StatusAccepted: the sequence joined an existing cluster.
	StatusAccepted Status = "accepted"
	// StatusNewCluster: no cluster cleared the threshold; the sequence
	// founded a new one.
	StatusNewCluster Status = "new_cluster"
	// StatusRejected: the sequence was not absorbed (empty, symbols
	// outside the alphabet, or the cluster cap is reached).
	StatusRejected Status = "rejected"
)

// Verdict is the per-sequence outcome of an ingest.
type Verdict struct {
	// Status is the outcome kind.
	Status Status `json:"status"`
	// Cluster is the stable ID of the cluster joined or founded; −1 on
	// rejection.
	Cluster int `json:"cluster"`
	// Similarity is the per-symbol normalized similarity to the best
	// existing cluster (matching core.Assignment.Similarity); 0 when no
	// clusters existed yet.
	Similarity float64 `json:"similarity"`
	// Reason explains a rejection; empty otherwise.
	Reason string `json:"reason,omitempty"`
}

// scluster is one live cluster of the stream engine.
type scluster struct {
	id   int
	tree *pst.Tree
	// snap is the compiled scoring snapshot, refreshed at every
	// consolidation; between refreshes an insert invalidates it and
	// snap.Score falls back to the (bit-identical) tree scan.
	snap *pst.Snapshot
	// pub is the clone of tree the last publish handed out, taken at
	// tree version pubVersion: read-only, so the next publish shares it
	// while the tree is unchanged.
	pub        *pst.Tree
	pubVersion uint64
	// size counts sequences absorbed (seed included).
	size int64
	// createdAt is the engine's ingest counter when the cluster was
	// founded; the dissolve grace period is measured from it.
	createdAt int64
	// reservoir is a ring of recent member sequences (copies), the
	// evidence base for merge decisions.
	reservoir [][]seq.Symbol
	resNext   int
}

// Engine is an incremental clustering engine. Construct with New.
type Engine struct {
	cfg Config

	mu sync.Mutex
	// background is the similarity background distribution, frozen
	// between consolidations (initially uniform) and replaced at each
	// pass by a fresh slice recomputed from the running symbol counts.
	// A slice is never rewritten once scored against (see
	// pst.Tree.Similarity).
	background []float64
	symCounts  []int64
	totalSyms  int64
	clusters   []*scluster
	thr        core.ThresholdAdjuster
	nextID     int

	ingested       int64
	accepted       int64
	created        int64
	rejected       int64
	merges         int64
	dissolves      int64
	consolidations int64
	version        uint64
	lastDrift      float64
	sinceConsol    int
	// thresholds keeps the recent per-consolidation threshold history
	// (similarity domain) for the stats endpoint.
	thresholds []float64

	// simRing is the sliding window of recent sequence-cluster
	// normalized log-similarities feeding the §4.6 histogram.
	simRing []float64
	simLen  int
	simNext int

	treeCfg pst.Config // every cluster tree's, checked by New

	// pool serves the per-ingest scoring fan-out; nil when Workers=1.
	pool *pool.Pool
	// sims/norms are per-cluster scratch, index-partitioned by the
	// fan-out (slot i belongs to cluster i exclusively).
	sims  []pst.Similarity
	norms []float64

	met streamMetrics

	// curTrace is the request trace of the ingest currently holding the
	// mutex (nil outside traced ingests); consolidateLocked attributes
	// its consolidation span to it, so the request that happened to
	// trigger a pass shows the cost it absorbed. Set and cleared under
	// e.mu.
	curTrace *obs.RequestTrace

	done   chan struct{}
	wg     sync.WaitGroup
	closed bool
}

// New constructs a streaming engine. Close releases its background
// flusher (when FlushInterval is set).
func New(cfg Config) (*Engine, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	n := cfg.Alphabet.Size()
	// Check the one configuration every cluster tree shares, so a bad
	// estimator parameter fails New, not the first Ingest under e.mu.
	treeCfg := pst.Config{
		AlphabetSize:         n,
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
	e := &Engine{
		cfg:        cfg,
		treeCfg:    treeCfg,
		background: make([]float64, n),
		symCounts:  make([]int64, n),
		// Buckets and Valley stay zero: the §4.6 histogram's default 100
		// buckets and ValleyAuto.
		thr: core.ThresholdAdjuster{
			LogT: math.Log(cfg.SimilarityThreshold),
			// Non-sticky: a stream's similarity distribution drifts, so the
			// threshold must keep tracking it; the per-consolidation delta
			// is surfaced as the drift metric.
			Sticky: false,
		},
		simRing: make([]float64, simWindow),
	}
	for s := range e.background {
		e.background[s] = 1 / float64(n)
	}
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > 1 {
		e.pool = pool.New(workers - 1)
		e.pool.Instrument(cfg.Obs, "cluseq_stream_pool")
	}
	e.met = newStreamMetrics(cfg.Obs, cfg.Prune)
	e.met.threshold.Set(cfg.SimilarityThreshold)
	if cfg.Resume != nil {
		if err := e.adoptResume(cfg.Resume); err != nil {
			return nil, err
		}
	}
	if cfg.FlushInterval > 0 {
		e.done = make(chan struct{})
		e.wg.Add(1)
		go e.flushLoop()
	}
	return e, nil
}

// Close stops the background flusher. Idempotent; concurrent with
// ingests, which remain valid after Close (only the timer stops).
func (e *Engine) Close() {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return
	}
	e.closed = true
	e.mu.Unlock()
	if e.done != nil {
		close(e.done)
		e.wg.Wait()
	}
}

func (e *Engine) flushLoop() {
	defer e.wg.Done()
	t := time.NewTicker(e.cfg.FlushInterval)
	defer t.Stop()
	for {
		select {
		case <-e.done:
			return
		case <-t.C:
			e.mu.Lock()
			if e.sinceConsol > 0 {
				e.consolidateLocked()
			}
			e.mu.Unlock()
		}
	}
}

// adoptResume rebuilds the engine's live state from a persisted
// snapshot (see Config.Resume). Resumed clusters get ids 0..n-1 in
// bundle order and a size of minClusterSize so the dissolve rule does
// not treat them as stillborn the moment they return.
func (e *Engine) adoptResume(clf *core.Classifier) error {
	trees := clf.Trees()
	if len(trees) == 0 {
		return fmt.Errorf("stream: Resume classifier carries no trees; persist bundles with core.BundleOptions.WithTrees")
	}
	info := clf.Info()
	if info.Alphabet != e.cfg.Alphabet.String() {
		return fmt.Errorf("stream: Resume alphabet %q does not match engine alphabet %q", info.Alphabet, e.cfg.Alphabet.String())
	}
	if info.RawSimilarity {
		return fmt.Errorf("stream: Resume classifier compares raw similarities; the stream compares per-symbol normalized ones")
	}
	bg := clf.Background()
	if len(bg) != e.cfg.Alphabet.Size() {
		return fmt.Errorf("stream: Resume background has %d symbols, engine alphabet %d", len(bg), e.cfg.Alphabet.Size())
	}
	want := e.treeCfg
	for i, t := range trees {
		if got := t.Config(); got.AlphabetSize != want.AlphabetSize || got.MaxDepth != want.MaxDepth {
			return fmt.Errorf("stream: Resume tree %d trained with alphabet %d depth %d, engine wants alphabet %d depth %d (consolidation merges would mix incompatible trees)",
				i, got.AlphabetSize, got.MaxDepth, want.AlphabetSize, want.MaxDepth)
		}
	}
	copy(e.background, bg)
	for i, t := range trees {
		c := &scluster{
			id:   i,
			tree: t.Clone(),
			size: minClusterSize,
		}
		c.snap = c.tree.CompileSnapshot(e.background)
		e.met.snapshotCompiles.Inc()
		e.clusters = append(e.clusters, c)
	}
	e.nextID = len(trees)
	if info.Threshold > 0 {
		e.thr.LogT = math.Log(info.Threshold)
	}
	e.version = clf.PublishedVersion()
	e.met.clusters.Set(float64(len(e.clusters)))
	e.met.publishedVersion.Set(float64(e.version))
	e.met.threshold.Set(e.thr.Threshold())
	return nil
}

func (e *Engine) newTree() *pst.Tree { return pst.MustNew(e.treeCfg) }

// Ingest absorbs one sequence and returns its verdict.
func (e *Engine) Ingest(syms []seq.Symbol) Verdict {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.ingestLocked(syms)
}

// IngestString encodes raw under the engine's alphabet and ingests it;
// runes outside the alphabet yield a rejection verdict, not an error.
func (e *Engine) IngestString(raw string) Verdict {
	syms, err := e.cfg.Alphabet.Encode(raw)
	if err != nil {
		e.mu.Lock()
		defer e.mu.Unlock()
		e.ingested++
		e.rejected++
		e.met.ingested.Inc()
		e.met.rejected.Inc()
		return Verdict{Status: StatusRejected, Cluster: -1, Reason: err.Error()}
	}
	return e.Ingest(syms)
}

// IngestBatch absorbs the sequences in order under one lock
// acquisition; the returned verdicts are index-aligned with the input.
func (e *Engine) IngestBatch(batch [][]seq.Symbol) []Verdict {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make([]Verdict, len(batch))
	for i, syms := range batch {
		out[i] = e.ingestLocked(syms)
	}
	return out
}

// IngestStrings is IngestBatch over raw strings.
func (e *Engine) IngestStrings(batch []string) []Verdict {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.ingestStringsLocked(batch)
}

// IngestStringsCtx is IngestStrings with request-trace attribution: when
// ctx carries a live trace (obs.ContextWithTrace), the time spent queued
// behind the engine mutex and the time doing the actual ingest work are
// recorded as separate spans (stream_queue_wait / stream_ingest), and a
// consolidation pass triggered by this batch appears as its own span on
// the same trace. The queue wait also feeds the
// cluseq_stream_lock_wait_seconds histogram for every caller, traced or
// not. Verdicts are identical to IngestStrings — tracing observes the
// engine, never steers it.
func (e *Engine) IngestStringsCtx(ctx context.Context, batch []string) []Verdict {
	tr := obs.TraceFromContext(ctx)
	wait := tr.StartSpan("stream_queue_wait")
	lockStart := time.Now()
	e.mu.Lock()
	wait.End()
	e.met.lockWaitSeconds.Observe(time.Since(lockStart).Seconds())
	e.curTrace = tr
	work := tr.StartSpan("stream_ingest")
	defer func() {
		work.End()
		e.curTrace = nil
		e.mu.Unlock()
	}()
	return e.ingestStringsLocked(batch)
}

// ingestStringsLocked encodes and ingests the batch in order. Caller
// holds e.mu.
func (e *Engine) ingestStringsLocked(batch []string) []Verdict {
	out := make([]Verdict, len(batch))
	for i, raw := range batch {
		syms, err := e.cfg.Alphabet.Encode(raw)
		if err != nil {
			e.ingested++
			e.rejected++
			e.met.ingested.Inc()
			e.met.rejected.Inc()
			out[i] = Verdict{Status: StatusRejected, Cluster: -1, Reason: err.Error()}
			continue
		}
		out[i] = e.ingestLocked(syms)
	}
	return out
}

// ingestLocked is the single-arrival pipeline: validate, score against
// every cluster (parallel, index-partitioned), join-or-found serially,
// then consolidate when the cadence comes due. Caller holds e.mu.
//
//cluseq:deterministic
func (e *Engine) ingestLocked(syms []seq.Symbol) Verdict {
	start := time.Now() //cluseq:allow determinism: timestamp feeds the ingest-seconds histogram only, never the clustering state
	e.ingested++
	e.met.ingested.Inc()
	if len(syms) == 0 {
		e.rejected++
		e.met.rejected.Inc()
		return Verdict{Status: StatusRejected, Cluster: -1, Reason: "empty sequence"}
	}
	alpha := e.cfg.Alphabet.Size()
	for _, s := range syms {
		if int(s) < 0 || int(s) >= alpha {
			e.rejected++
			e.met.rejected.Inc()
			return Verdict{Status: StatusRejected, Cluster: -1, Reason: fmt.Sprintf("symbol %d outside alphabet of %d", s, alpha)}
		}
	}
	for _, s := range syms {
		e.symCounts[s]++
	}
	e.totalSyms += int64(len(syms))

	// Parallel scoring fan-out: slot i is written by exactly one worker.
	n := len(e.clusters)
	if cap(e.sims) < n {
		e.sims = make([]pst.Similarity, n)
		e.norms = make([]float64, n)
	}
	e.sims, e.norms = e.sims[:n], e.norms[:n]
	e.forEachWorker(n, func(i int) {
		sim := e.score(e.clusters[i], syms)
		e.sims[i] = sim
		e.norms[i] = normLogSim(sim, len(syms))
	})

	// Serial selection: first maximum wins, so the verdict is independent
	// of worker count and scheduling.
	best, bestNorm := -1, math.Inf(-1)
	for i, norm := range e.norms {
		if !math.IsInf(norm, -1) {
			e.pushSim(norm)
		}
		if norm > bestNorm {
			bestNorm = norm
			best = i
		}
	}

	v := Verdict{Similarity: 0}
	if best >= 0 {
		v.Similarity = math.Exp(bestNorm)
	}
	switch {
	case best >= 0 && bestNorm >= e.thr.LogT:
		c := e.clusters[best]
		events, nodes := c.tree.PruneEvents(), c.tree.PrunedNodes()
		c.tree.Insert(syms[e.sims[best].Start:e.sims[best].End])
		e.met.countPrunes(c.tree, events, nodes)
		c.size++
		e.pushReservoir(c, syms)
		e.accepted++
		e.met.accepted.Inc()
		v.Status, v.Cluster = StatusAccepted, c.id
	case len(e.clusters) < maxClusters:
		c := &scluster{
			id:        e.nextID,
			tree:      e.newTree(),
			size:      1,
			createdAt: e.ingested,
		}
		e.nextID++
		c.tree.Insert(syms)
		e.met.countPrunes(c.tree, 0, 0)
		c.snap = c.tree.CompileSnapshot(e.background)
		e.met.snapshotCompiles.Inc()
		e.pushReservoir(c, syms)
		e.clusters = append(e.clusters, c)
		e.created++
		e.met.newClusters.Inc()
		e.met.clusters.Set(float64(len(e.clusters)))
		v.Status, v.Cluster = StatusNewCluster, c.id
	default:
		e.rejected++
		e.met.rejected.Inc()
		v.Status, v.Cluster = StatusRejected, -1
		v.Reason = fmt.Sprintf("below threshold and cluster cap %d reached", maxClusters)
	}

	e.sinceConsol++
	if e.sinceConsol >= e.cfg.ConsolidateEvery {
		e.consolidateLocked()
	}
	e.met.ingestSeconds.ObserveSince(start)
	return v
}

// pushSim records one normalized log-similarity into the sliding §4.6
// window.
//
//cluseq:deterministic
func (e *Engine) pushSim(norm float64) {
	e.simRing[e.simNext] = norm
	e.simNext = (e.simNext + 1) % len(e.simRing)
	if e.simLen < len(e.simRing) {
		e.simLen++
	}
}

// pushReservoir adds a copy of syms to the cluster's recent-member ring.
//
//cluseq:deterministic
func (e *Engine) pushReservoir(c *scluster, syms []seq.Symbol) {
	cp := append([]seq.Symbol(nil), syms...)
	if len(c.reservoir) < reservoirSize {
		c.reservoir = append(c.reservoir, cp)
		return
	}
	c.reservoir[c.resNext] = cp
	c.resNext = (c.resNext + 1) % len(c.reservoir)
}

// normLogSim converts a similarity to the per-symbol log scale the
// threshold lives on (see core.Config.SimilarityThreshold).
//
//cluseq:hotpath
//cluseq:deterministic
func normLogSim(sim pst.Similarity, seqLen int) float64 {
	if seqLen == 0 {
		return sim.LogSim
	}
	return sim.LogSim / float64(seqLen)
}

// forEachWorker runs fn(i) for i in [0, n), on the engine's pool when
// one exists and n is large enough to pay for the dispatch, serially
// otherwise.
//
//cluseq:fanout
func (e *Engine) forEachWorker(n int, fn func(i int)) {
	if e.pool == nil || n < 4 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	e.pool.Run(n, fn)
}
