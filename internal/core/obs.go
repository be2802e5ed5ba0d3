package core

import (
	"time"

	"cluseq/internal/obs"
	"cluseq/internal/pst"
)

// engineMetrics holds the engine's pre-registered observability
// handles. The zero value (all nil handles, from a nil registry) is
// fully functional as a no-op: every obs handle method is
// nil-receiver-safe, so the engine instruments unconditionally and
// pays one predictable branch per update when observability is off.
// Metric names are catalogued in DESIGN.md §10.
type engineMetrics struct {
	iterations *obs.Counter

	// One timing histogram per §4 outer-loop phase, in seconds.
	phaseGenerate    *obs.Histogram
	phaseScore       *obs.Histogram
	phaseApply       *obs.Histogram
	phaseConsolidate *obs.Histogram
	phaseThreshold   *obs.Histogram
	phaseRefine      *obs.Histogram

	cacheHits   *obs.Counter
	cacheMisses *obs.Counter

	snapCompiles       *obs.Counter
	snapCompileSeconds *obs.Histogram

	clusters    *obs.Gauge
	unclustered *obs.Gauge
	threshold   *obs.Gauge

	pstNodes *obs.Gauge
	pstBytes *obs.Gauge
	// pruneEvents and prunedNodes count the §5.1 prune passes and the
	// nodes they evicted: the delta each Insert and Merge call produces
	// (see countPrunes).
	pruneEvents *obs.Counter
	prunedNodes *obs.Counter
}

// phaseSeconds is the domain of the per-phase timing histograms:
// [0, 60s) at 0.1s resolution. Longer phases clamp into the last
// bucket (quantiles then saturate at the domain edge, the same
// contract as the serving latency histogram).
func phaseSeconds(reg *obs.Registry, phase string) *obs.Histogram {
	return reg.Histogram("cluseq_engine_phase_seconds", 0, 60, 600, "phase", phase)
}

// newEngineMetrics registers the engine's metric series. The prune
// counters carry the run's configured §5.1 strategy as a label so
// dashboards can tell which eviction policy fired.
func newEngineMetrics(reg *obs.Registry, prune pst.PruneStrategy) engineMetrics {
	if reg == nil {
		return engineMetrics{}
	}
	strategy := prune.String()
	return engineMetrics{
		iterations: reg.Counter("cluseq_engine_iterations_total"),

		phaseGenerate:    phaseSeconds(reg, "generate"),
		phaseScore:       phaseSeconds(reg, "score"),
		phaseApply:       phaseSeconds(reg, "apply"),
		phaseConsolidate: phaseSeconds(reg, "consolidate"),
		phaseThreshold:   phaseSeconds(reg, "threshold"),
		phaseRefine:      phaseSeconds(reg, "refine"),

		cacheHits:   reg.Counter("cluseq_engine_cache_hits_total"),
		cacheMisses: reg.Counter("cluseq_engine_cache_misses_total"),

		snapCompiles:       reg.Counter("cluseq_engine_snapshot_compiles_total"),
		snapCompileSeconds: reg.Histogram("cluseq_engine_snapshot_compile_seconds", 0, 1, 200),

		clusters:    reg.Gauge("cluseq_engine_clusters"),
		unclustered: reg.Gauge("cluseq_engine_unclustered"),
		threshold:   reg.Gauge("cluseq_engine_threshold"),

		pstNodes:    reg.Gauge("cluseq_pst_nodes"),
		pstBytes:    reg.Gauge("cluseq_pst_bytes"),
		pruneEvents: reg.Counter("cluseq_pst_prune_events_total", "strategy", strategy),
		prunedNodes: reg.Counter("cluseq_pst_pruned_nodes_total", "strategy", strategy),
	}
}

// enabled reports whether any metrics registry is attached (handles
// are registered all-or-nothing).
func (m *engineMetrics) enabled() bool { return m.iterations != nil }

// observePhase records one phase duration; a tiny wrapper so call
// sites read as one line.
//
//cluseq:hotpath
func (m *engineMetrics) observePhase(h *obs.Histogram, start time.Time) {
	h.ObserveSince(start)
}

// countPrunes adds the prune passes and evictions of Insert or Merge
// calls into tree, given its counters read just before them (zero for a
// fresh tree). For a merge, nodes also holds the absorbed tree's
// PrunedNodes, which Merge carries over; harvesting the trees'
// cumulative counters instead would count every merged eviction twice.
// Safe from pool workers: the counters are atomic.
func (m *engineMetrics) countPrunes(tree *pst.Tree, events, nodes int64) {
	m.pruneEvents.Add(tree.PruneEvents() - events)
	m.prunedNodes.Add(tree.PrunedNodes() - nodes)
}

// observeIteration publishes the end-of-iteration state: gauges for
// cluster/PST size and threshold, and counters for cache traffic.
func (e *engine) observeIteration(trace *IterationTrace) {
	if !e.met.enabled() {
		return
	}
	e.met.iterations.Inc()
	nodes, bytes := 0, 0
	for _, c := range e.clusters {
		nodes += c.tree.NumNodes()
		bytes += c.tree.EstimatedBytes()
	}
	e.met.pstNodes.Set(float64(nodes))
	e.met.pstBytes.Set(float64(bytes))
	e.met.clusters.Set(float64(trace.Clusters))
	e.met.unclustered.Set(float64(trace.Unclustered))
	e.met.threshold.Set(trace.Threshold)
	e.met.cacheHits.Add(int64(trace.CacheHits))
	e.met.cacheMisses.Add(int64(trace.CacheMisses))
}
