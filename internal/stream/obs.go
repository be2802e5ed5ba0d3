package stream

import (
	"cluseq/internal/obs"
	"cluseq/internal/pst"
)

// streamMetrics holds the engine's pre-registered metric handles. The
// zero value (no registry) is all nil handles, which are no-ops, so the
// ingest path never branches on "is obs enabled". Catalogue in
// DESIGN.md §13.
type streamMetrics struct {
	ingested       *obs.Counter
	accepted       *obs.Counter
	newClusters    *obs.Counter
	rejected       *obs.Counter
	consolidations *obs.Counter
	merged         *obs.Counter
	dissolved      *obs.Counter
	published      *obs.Counter
	// snapshotCompiles counts the snapshots the engine compiles in
	// full: at founding, on resume, before the merge test (stale
	// clusters only) and after the background refresh (clusters the
	// merges left stale). snapshotRefolds counts the clusters the
	// refresh only refolds, whose trees did not change since their last
	// compile. A publish compiles nothing: it shares the refresh's
	// snapshots.
	snapshotCompiles *obs.Counter
	snapshotRefolds  *obs.Counter
	// treeScans counts the similarity scores that read a tree rather
	// than compiled tables: a stale snapshot's fallback.
	treeScans *obs.Counter
	// pruneEvents and prunedNodes count the §5.1 prune passes and the
	// nodes they evicted, labeled by strategy: the delta each Insert and
	// Merge call produces. Harvesting the trees' cumulative counters
	// would count a merge twice, because Merge adds the absorbed tree's
	// lifetime total to the target's PrunedNodes.
	pruneEvents *obs.Counter
	prunedNodes *obs.Counter

	clusters         *obs.Gauge
	pstNodes         *obs.Gauge
	pstBytes         *obs.Gauge
	threshold        *obs.Gauge
	thresholdDrift   *obs.Gauge
	publishedVersion *obs.Gauge

	ingestSeconds    *obs.Histogram
	mergeSeconds     *obs.Histogram
	thresholdHistory *obs.Histogram
	lockWaitSeconds  *obs.Histogram
}

func newStreamMetrics(reg *obs.Registry, prune pst.PruneStrategy) streamMetrics {
	if reg == nil {
		return streamMetrics{}
	}
	strategy := prune.String()
	return streamMetrics{
		ingested:       reg.Counter("cluseq_stream_ingested_total"),
		accepted:       reg.Counter("cluseq_stream_accepted_total"),
		newClusters:    reg.Counter("cluseq_stream_new_clusters_total"),
		rejected:       reg.Counter("cluseq_stream_rejected_total"),
		consolidations: reg.Counter("cluseq_stream_consolidations_total"),
		merged:         reg.Counter("cluseq_stream_merged_total"),
		dissolved:      reg.Counter("cluseq_stream_dissolved_total"),
		published:      reg.Counter("cluseq_stream_published_total"),

		snapshotCompiles: reg.Counter("cluseq_stream_snapshot_compiles_total"),
		snapshotRefolds:  reg.Counter("cluseq_stream_snapshot_refolds_total"),
		treeScans:        reg.Counter("cluseq_stream_tree_scans_total"),
		pruneEvents:      reg.Counter("cluseq_stream_prune_events_total", "strategy", strategy),
		prunedNodes:      reg.Counter("cluseq_stream_pruned_nodes_total", "strategy", strategy),

		clusters:         reg.Gauge("cluseq_stream_clusters"),
		pstNodes:         reg.Gauge("cluseq_stream_pst_nodes"),
		pstBytes:         reg.Gauge("cluseq_stream_pst_bytes"),
		threshold:        reg.Gauge("cluseq_stream_threshold"),
		thresholdDrift:   reg.Gauge("cluseq_stream_threshold_drift"),
		publishedVersion: reg.Gauge("cluseq_stream_published_version"),

		// One ingest is a handful of tree scans: [0, 100ms) at 0.5ms
		// resolution covers even large cluster counts.
		ingestSeconds: reg.Histogram("cluseq_stream_ingest_seconds", 0, 0.1, 200),
		// A merge pass scores every reservoir pair: [0, 5s) at 10ms.
		mergeSeconds: reg.Histogram("cluseq_stream_merge_seconds", 0, 5, 500),
		// Thresholds land near 1; [0, 10) at 0.05 keeps the history
		// readable as a distribution over consolidations.
		thresholdHistory: reg.Histogram("cluseq_stream_threshold_history", 0, 10, 200),
		// Time an ingest spent queued behind the engine mutex: [0, 1s)
		// at 5ms resolution — the contention signal under open-loop load.
		lockWaitSeconds: reg.Histogram("cluseq_stream_lock_wait_seconds", 0, 1, 200),
	}
}

// countPrunes adds the prune passes and evictions of one Insert or Merge
// into tree, given its counters read just before the call; for a merge,
// nodes also holds the absorbed tree's PrunedNodes, which Merge carries
// over.
func (m *streamMetrics) countPrunes(tree *pst.Tree, events, nodes int64) {
	m.pruneEvents.Add(tree.PruneEvents() - events)
	m.prunedNodes.Add(tree.PrunedNodes() - nodes)
}
