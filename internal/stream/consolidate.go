package stream

import (
	"sort"
	"time"

	"cluseq/internal/core"
	"cluseq/internal/pst"
	"cluseq/internal/seq"
)

// ConsolidateNow forces a consolidation pass immediately, regardless of
// the count cadence — the server's drain path and tests use it to flush
// a partial window. No-op on an engine that has ingested nothing since
// the last pass.
func (e *Engine) ConsolidateNow() {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.sinceConsol > 0 {
		e.consolidateLocked()
	}
}

// consolidateLocked runs one consolidation pass: compile the snapshots
// the window's inserts left stale, merge covered clusters and dissolve
// stillborn ones (§4.5 adapted to streaming evidence), re-adjust the
// similarity threshold from the recent-similarity window (§4.6), refresh
// the background distribution from the running symbol counts, refold
// every scoring snapshot against it (compiling the merge targets, whose
// trees changed), and publish a frozen classifier that shares those
// snapshots. Caller holds e.mu.
//
//cluseq:deterministic
func (e *Engine) consolidateLocked() {
	e.sinceConsol = 0
	e.consolidations++
	e.met.consolidations.Inc()

	// When a traced ingest triggered this pass, the pass's full cost
	// lands on that request's trace — the §4.5/4.6 work is exactly the
	// latency outlier the flight recorder exists to explain. The pass is
	// also a job trace of its own, sampled so the recorder keeps it: a
	// child of that request (same trace ID, the request's root span as
	// parent), or a fresh trace for a flush-timer or ConsolidateNow pass.
	reqSpan := e.curTrace.StartSpan("stream_consolidate")
	defer reqSpan.End()
	inbound := e.curTrace.Context()
	inbound.Sampled = true
	job := e.cfg.Flight.Begin("stream_consolidate", inbound)
	defer e.cfg.Flight.Finish(job, 200)

	// The merge test scores every reservoir against its candidate
	// targets, so compile the stale clusters first, against the
	// background the test scores with: each then costs one compile
	// instead of a tree scan per reservoir sequence it is tested against.
	sp := job.StartSpan("stream_compile")
	e.compileSnapshots(false)
	sp.End()

	sp = job.StartSpan("stream_merge")
	start := time.Now() //cluseq:allow determinism: timestamp feeds the phase-seconds histogram only, never the clustering state
	merged, dissolved := e.mergeAndDissolve()
	e.met.mergeSeconds.ObserveSince(start)
	sp.End()

	sp = job.StartSpan("stream_threshold")
	tBefore := e.thr.Threshold()
	e.thr.Adjust(e.simRing[:e.simLen], false)
	t := e.thr.Threshold()
	// Drift is the threshold's per-consolidation movement: a stationary
	// stream settles to ~0; sustained non-zero drift means the similarity
	// distribution itself is moving.
	e.lastDrift = t - tBefore
	e.thresholds = append(e.thresholds, t)
	if len(e.thresholds) > thresholdHistoryLen {
		e.thresholds = e.thresholds[1:]
	}
	e.met.threshold.Set(t)
	e.met.thresholdDrift.Set(e.lastDrift)
	e.met.thresholdHistory.Observe(t)
	sp.End()

	// Refresh the background from the running symbol counts, then
	// refold every snapshot against it (similarities are only
	// comparable when snapshot and fallback scan share one background).
	// The refresh is a fresh slice, never an in-place rewrite: trees
	// memoize ln(background) by the slice's address, so rewriting it
	// would leave every existing cluster scoring — and compiling — with
	// the old logarithms.
	if e.totalSyms > 0 {
		bg := make([]float64, len(e.symCounts))
		for s, c := range e.symCounts {
			bg[s] = float64(c) / float64(e.totalSyms)
		}
		e.background = bg
	}
	sp = job.StartSpan("stream_compile")
	e.compileSnapshots(true)
	sp.End()

	sp = job.StartSpan("stream_publish")
	e.publishLocked()
	sp.End()

	e.observeLocked()
	if e.cfg.Logf != nil {
		e.cfg.Logf("stream consolidation %d: %d clusters (-%d merged, -%d dissolved), t=%.4g (drift %+.3g), v%d",
			e.consolidations, len(e.clusters), merged, dissolved, t, e.lastDrift, e.version)
	}
}

// thresholdHistoryLen bounds the per-consolidation threshold history
// kept for the stats endpoint.
const thresholdHistoryLen = 64

// mergeAndDissolve scans clusters smallest-first (ties: newest first,
// matching the batch engine's §4.5 order) and, for each, either
// dissolves it — still under minClusterSize past the grace period — or
// absorbs it into the first larger cluster whose threshold at least
// MergeFraction of its reservoir clears. Merging sums the tree
// statistics (pst.Tree.Merge), so the absorbed evidence keeps scoring.
//
//cluseq:deterministic
func (e *Engine) mergeAndDissolve() (merged, dissolved int) {
	if len(e.clusters) == 0 {
		return 0, 0
	}
	idx := make([]int, len(e.clusters))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool {
		ca, cb := e.clusters[idx[a]], e.clusters[idx[b]]
		if ca.size != cb.size {
			return ca.size < cb.size
		}
		return ca.id > cb.id // among equals, newer clusters go first
	})
	dropped := make([]bool, len(e.clusters))
	for pos, ci := range idx {
		c := e.clusters[ci]
		if c.size < minClusterSize && e.ingested-c.createdAt >= int64(e.cfg.DissolveAfter) {
			dropped[ci] = true
			dissolved++
			e.dissolves++
			e.met.dissolved.Inc()
			continue
		}
		// Only clusters later in the scan (larger, or equal-size older)
		// are absorption candidates, mirroring the batch consolidation's
		// "other (larger) clusters".
		for _, cj := range idx[pos+1:] {
			if dropped[cj] {
				continue
			}
			target := e.clusters[cj]
			if e.covers(c, target) {
				events, nodes := target.tree.PruneEvents(), target.tree.PrunedNodes()+c.tree.PrunedNodes()
				if err := target.tree.Merge(c.tree); err != nil {
					// Trees within one engine always share configuration; a
					// mismatch would be a programming error worth surfacing.
					panic(err)
				}
				e.met.countPrunes(target.tree, events, nodes)
				target.size += c.size
				for _, s := range c.reservoir {
					e.pushReservoir(target, s)
				}
				dropped[ci] = true
				merged++
				e.merges++
				e.met.merged.Inc()
				break
			}
		}
	}
	if merged+dissolved == 0 {
		return 0, 0
	}
	kept := e.clusters[:0]
	for i, c := range e.clusters {
		if !dropped[i] {
			kept = append(kept, c)
		}
	}
	// Clear the tail so dropped trees are collectable.
	for i := len(kept); i < len(e.clusters); i++ {
		e.clusters[i] = nil
	}
	e.clusters = kept
	e.met.clusters.Set(float64(len(e.clusters)))
	return merged, dissolved
}

// covers reports whether at least MergeFraction of c's reservoir
// clears target's threshold — the streaming stand-in for §4.5's
// member-overlap test, since a stream engine holds no global membership
// sets. It stops scoring once the answer is fixed: when the sequences
// covered so far already reach the fraction, or when covering every
// remaining one could no longer reach it (with the defaults, after 13 of
// 32 misses). The share is compared exactly as the whole count would be,
// so the answer never differs from a full scan.
//
//cluseq:deterministic
func (e *Engine) covers(c, target *scluster) bool {
	n := len(c.reservoir)
	reaches := func(covered int) bool { return float64(covered)/float64(n) >= e.cfg.MergeFraction }
	covered := 0
	for i, syms := range c.reservoir {
		if normLogSim(e.score(target, syms), len(syms)) >= e.thr.LogT {
			covered++
			if reaches(covered) {
				return true
			}
		} else if !reaches(covered + n - 1 - i) {
			return false
		}
	}
	return n > 0 && reaches(covered)
}

// score is the stream's one way to score a live cluster: through its
// snapshot, or through the tree when the snapshot is stale
// (pst.Snapshot.Score). It counts the scans that read the tree, so the
// tree-scan share is measured where it happens.
//
//cluseq:hotpath
func (e *Engine) score(c *scluster, syms []seq.Symbol) pst.Similarity {
	if !c.snap.Valid(c.tree) {
		e.met.treeScans.Inc()
	}
	return c.snap.Score(c.tree, syms, e.background)
}

// compileSnapshots brings, across the engine pool, cluster snapshots up
// to date with the current background: only those an insert or merge
// has left stale, or, after a background refresh, every one.
// pst.Snapshot.Refold does both: it compiles a stale snapshot in full,
// and only refolds the score rows of a current one, whose tree is the
// one it compiled. Like the batch engine's ensureSnapshots, each task
// writes only its own cluster.
func (e *Engine) compileSnapshots(refresh bool) {
	var todo []*scluster
	stale := 0
	for _, c := range e.clusters {
		if !c.snap.Valid(c.tree) {
			stale++
		} else if !refresh {
			continue
		}
		todo = append(todo, c)
	}
	e.forEachWorker(len(todo), func(i int) {
		c := todo[i]
		c.snap = c.snap.Refold(e.background)
	})
	e.met.snapshotCompiles.Add(int64(stale))
	e.met.snapshotRefolds.Add(int64(len(todo) - stale))
}

// publishLocked freezes the current clusters into a classifier and
// hands it to the Publish callback. Trees are deep-cloned so the
// published model is immutable while the live trees keep absorbing the
// stream; a cluster whose tree has not changed since its last publish
// shares that publish's clone, which no reader mutates. The classifier
// takes the snapshots the pass just compiled or refolded for every
// cluster (their tables are immutable) instead of compiling the clones
// again. An empty engine publishes nothing: a classifier needs at least
// one cluster.
//
//cluseq:deterministic
func (e *Engine) publishLocked() {
	if e.cfg.Publish == nil || len(e.clusters) == 0 {
		return
	}
	trees := make([]*pst.Tree, len(e.clusters))
	snaps := make([]*pst.Snapshot, len(e.clusters))
	for i, c := range e.clusters {
		if c.pub == nil || c.pubVersion != c.tree.Version() {
			c.pub, c.pubVersion = c.tree.Clone(), c.tree.Version()
		}
		trees[i] = c.pub
		snaps[i] = c.snap
	}
	clf, err := core.NewClassifierFromParts(trees, snaps, e.cfg.Alphabet, e.background, e.thr.Threshold())
	if err != nil {
		// Unreachable with engine-built parts; surface loudly if not.
		panic(err)
	}
	e.version++
	e.met.published.Inc()
	e.met.publishedVersion.Set(float64(e.version))
	e.cfg.Publish(clf, e.version)
}

// observeLocked refreshes the size gauges.
func (e *Engine) observeLocked() {
	nodes, bytes := 0, 0
	for _, c := range e.clusters {
		nodes += c.tree.NumNodes()
		bytes += c.tree.EstimatedBytes()
	}
	e.met.clusters.Set(float64(len(e.clusters)))
	e.met.pstNodes.Set(float64(nodes))
	e.met.pstBytes.Set(float64(bytes))
}

// Stats is a point-in-time summary of the engine, shaped for the
// daemon's /v1/ingest/stats endpoint.
type Stats struct {
	Ingested         int64     `json:"ingested"`
	Accepted         int64     `json:"accepted"`
	NewClusters      int64     `json:"new_clusters"`
	Rejected         int64     `json:"rejected"`
	Clusters         int       `json:"clusters"`
	Consolidations   int64     `json:"consolidations"`
	Merges           int64     `json:"merges"`
	Dissolves        int64     `json:"dissolves"`
	PublishedVersion uint64    `json:"published_version"`
	Threshold        float64   `json:"threshold"`
	LastDrift        float64   `json:"last_drift"`
	PSTNodes         int       `json:"pst_nodes"`
	PSTBytes         int       `json:"pst_bytes"`
	ThresholdHistory []float64 `json:"threshold_history,omitempty"`
}

// Stats returns the engine's current counters and sizes.
func (e *Engine) Stats() Stats {
	e.mu.Lock()
	defer e.mu.Unlock()
	st := Stats{
		Ingested:         e.ingested,
		Accepted:         e.accepted,
		NewClusters:      e.created,
		Rejected:         e.rejected,
		Clusters:         len(e.clusters),
		Consolidations:   e.consolidations,
		Merges:           e.merges,
		Dissolves:        e.dissolves,
		PublishedVersion: e.version,
		Threshold:        e.thr.Threshold(),
		LastDrift:        e.lastDrift,
		ThresholdHistory: append([]float64(nil), e.thresholds...),
	}
	for _, c := range e.clusters {
		st.PSTNodes += c.tree.NumNodes()
		st.PSTBytes += c.tree.EstimatedBytes()
	}
	return st
}
