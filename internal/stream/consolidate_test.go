package stream

import (
	"bytes"
	"fmt"
	"testing"

	"cluseq/internal/core"
	"cluseq/internal/obs"
	"cluseq/internal/pst"
	"cluseq/internal/seq"
)

// TestConsolidationCounters checks the pass order through the stream's
// own counters. Three patterns that never cover each other leave two
// clusters whose snapshots the window's inserts made stale and a
// singleton still current since its founding: the pass compiles the two
// stale ones before the merge test, so the test — which merges nothing
// — scans no tree, then refolds all three after the background refresh,
// as no tree changed since, and the publish takes those, so it compiles
// nothing. Shrinkage trees compile like any other, so both legs count
// the same.
func TestConsolidationCounters(t *testing.T) {
	for _, shrinkage := range []float64{0, 8} {
		t.Run(fmt.Sprintf("shrinkage%v", shrinkage), func(t *testing.T) {
			alphabet := seq.MustAlphabet("abcd")
			cfg := streamTestConfig(t, alphabet)
			cfg.ConsolidateEvery = 1000 // manual consolidation only
			cfg.Shrinkage = shrinkage
			cfg.Obs = obs.NewRegistry()
			cfg.Publish = func(*core.Classifier, uint64) {}
			e, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer e.Close()
			for i := 0; i < 12; i++ {
				e.IngestString("abababababab")
				e.IngestString("cdcdcdcdcdcd")
			}
			e.IngestString("aaaaaaaaaaaa")
			compiles := cfg.Obs.Counter("cluseq_stream_snapshot_compiles_total")
			refolds := cfg.Obs.Counter("cluseq_stream_snapshot_refolds_total")
			scans := cfg.Obs.Counter("cluseq_stream_tree_scans_total")
			if compiles.Value() != 3 {
				t.Fatalf("founding compiled %d snapshots, want 3", compiles.Value())
			}

			e.mu.Lock()
			stale := 0
			for _, c := range e.clusters {
				if !c.snap.Valid(c.tree) {
					stale++
				}
			}
			e.mu.Unlock()
			if stale != 2 {
				t.Fatalf("%d stale clusters before the pass, want 2; the check would be vacuous", stale)
			}

			compiles0, refolds0, scans0 := compiles.Value(), refolds.Value(), scans.Value()
			e.ConsolidateNow()
			st := e.Stats()
			if st.Merges != 0 || st.Dissolves != 0 || st.Clusters != 3 {
				t.Fatalf("the pass changed the clusters (%+v); it must merge nothing", st)
			}
			if got := scans.Value() - scans0; got != 0 {
				t.Fatalf("merge test read the tree %d times, want 0", got)
			}
			if got := compiles.Value() - compiles0; got != int64(stale) {
				t.Fatalf("pass compiled %d snapshots, want the %d stale before the merge test (none after the refresh, none at publish)", got, stale)
			}
			if got := refolds.Value() - refolds0; got != int64(st.Clusters) {
				t.Fatalf("pass refolded %d snapshots, want all %d after the refresh", got, st.Clusters)
			}
		})
	}
}

// TestPublishedSnapshotsMatchClones pins the snapshot-publication
// contract: every published classifier's snapshots are byte for byte
// what compiling its own cloned trees against its own background gives,
// and none refers to a tree the engine owns: each is detached (no
// tree), with or without shrinkage.
func TestPublishedSnapshotsMatchClones(t *testing.T) {
	db, order := syntheticStream(t, 300)
	for _, shrinkage := range []float64{0, 8} {
		t.Run(fmt.Sprintf("shrinkage%v", shrinkage), func(t *testing.T) {
			cfg := streamTestConfig(t, db.Alphabet)
			cfg.Shrinkage = shrinkage
			cfg.MaxPSTBytes = 64 << 10
			cfg.ConsolidateEvery = 24
			var e *Engine
			engineTrees := map[*pst.Tree]bool{}
			publishes := 0
			cfg.Publish = func(clf *core.Classifier, version uint64) {
				// Called under e.mu, so the engine's clusters are stable.
				publishes++
				for _, c := range e.clusters {
					engineTrees[c.tree] = true
				}
				trees, snaps := clf.Trees(), clf.Snapshots()
				if len(snaps) != len(e.clusters) || len(trees) != len(snaps) {
					t.Fatalf("v%d: %d snapshots and %d trees for %d clusters", version, len(snaps), len(trees), len(e.clusters))
				}
				for i, snap := range snaps {
					fresh := trees[i].CompileSnapshot(clf.Background())
					if !bytes.Equal(snap.Arena(), fresh.Arena()) {
						t.Fatalf("v%d cluster %d: published arena differs from a compile of its clone", version, i)
					}
					if engineTrees[trees[i]] {
						t.Fatalf("v%d cluster %d: the published model refers to an engine-owned tree", version, i)
					}
					if snap.Tree() != nil {
						t.Fatalf("v%d cluster %d: published snapshot refers to tree %p, want a detached snapshot", version, i, snap.Tree())
					}
				}
			}
			var err error
			if e, err = New(cfg); err != nil {
				t.Fatal(err)
			}
			defer e.Close()
			for _, i := range order {
				e.Ingest(db.Sequences[i].Symbols)
			}
			if publishes < 10 {
				t.Fatalf("only %d publishes", publishes)
			}
		})
	}
}

// TestPublishSharesUnchangedClones: a publish clones only the trees
// that changed since the last one. Between two passes one arrival joins
// one of three clusters; the second publish hands out a new clone of
// that cluster's tree and the first publish's clones of the other two,
// each of which still saves to its engine tree's bytes.
func TestPublishSharesUnchangedClones(t *testing.T) {
	alphabet := seq.MustAlphabet("abcd")
	cfg := streamTestConfig(t, alphabet)
	cfg.ConsolidateEvery = 1000 // manual consolidation only
	var published [][]*pst.Tree
	cfg.Publish = func(clf *core.Classifier, _ uint64) { published = append(published, clf.Trees()) }
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	for i := 0; i < 12; i++ {
		e.IngestString("abababababab")
		e.IngestString("cdcdcdcdcdcd")
	}
	e.IngestString("aaaaaaaaaaaa")
	e.ConsolidateNow()
	joined := e.IngestString("abababababab")
	e.ConsolidateNow()
	if len(published) != 2 || joined.Status != StatusAccepted {
		t.Fatalf("%d publishes, join verdict %+v; want 2 publishes around one accepted arrival", len(published), joined)
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if len(e.clusters) != 3 || len(published[0]) != 3 || len(published[1]) != 3 {
		t.Fatalf("%d clusters, publishes of %d and %d trees; want 3 throughout", len(e.clusters), len(published[0]), len(published[1]))
	}
	for i, c := range e.clusters {
		shared := published[1][i] == published[0][i]
		if changed := c.id == joined.Cluster; shared == changed {
			t.Fatalf("cluster %d (joined: %v): second publish shared the first one's clone: %v", c.id, changed, shared)
		}
		var got, want bytes.Buffer
		if err := published[1][i].Save(&got); err != nil {
			t.Fatal(err)
		}
		if err := c.tree.Save(&want); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("cluster %d: published tree saves to other bytes than the engine's tree", c.id)
		}
	}
}

// TestPruneCounters checks the stream's prune counters against the
// per-call totals of a capped replay. Consolidation runs only by hand,
// so between passes only inserts mutate trees, and clusters never
// dissolve, so every tree a pass drops was merged away. Every prune pass
// any tree ran then counts once, and every eviction once: a live tree's
// PrunedNodes already holds the lifetime totals of the trees it
// absorbed, so the merged-away trees' own totals must not be added
// again.
func TestPruneCounters(t *testing.T) {
	db, order := syntheticStream(t, 400)
	cfg := streamTestConfig(t, db.Alphabet)
	cfg.MaxPSTBytes = 16 << 10
	cfg.ConsolidateEvery = 1 << 20 // manual consolidation only
	cfg.DissolveAfter = 1 << 30
	cfg.MergeFraction = 0.2
	cfg.Obs = obs.NewRegistry()
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	type counts struct{ events, nodes int64 }
	live := func() map[*pst.Tree]bool {
		e.mu.Lock()
		defer e.mu.Unlock()
		m := map[*pst.Tree]bool{}
		for _, c := range e.clusters {
			m[c.tree] = true
		}
		return m
	}
	var gone counts // merged-away trees' own totals
	mergedPruned := false
	for i, idx := range order {
		e.Ingest(db.Sequences[idx].Symbols)
		if (i+1)%24 != 0 {
			continue
		}
		before := live()
		e.ConsolidateNow()
		after := live()
		for tree := range before {
			// A dropped tree may itself have absorbed another in this
			// pass before it was merged away; read it as the pass left it.
			if !after[tree] {
				gone.events += tree.PruneEvents()
				gone.nodes += tree.PrunedNodes()
				mergedPruned = mergedPruned || tree.PrunedNodes() > 0
			}
		}
	}
	var want counts
	for tree := range live() {
		want.events += tree.PruneEvents()
		want.nodes += tree.PrunedNodes()
	}
	want.events += gone.events
	if st := e.Stats(); st.Merges == 0 || st.Dissolves != 0 || !mergedPruned {
		t.Fatalf("%d merges, %d dissolves, merged-away tree pruned: %v; the replay must merge pruned trees and dissolve none", st.Merges, st.Dissolves, mergedPruned)
	}
	events := cfg.Obs.Counter("cluseq_stream_prune_events_total", "strategy", "auto").Value()
	nodes := cfg.Obs.Counter("cluseq_stream_pruned_nodes_total", "strategy", "auto").Value()
	if events != want.events || nodes != want.nodes {
		t.Fatalf("prune counters read %d events and %d nodes, want %d and %d (the cumulative harvest would read %d nodes)",
			events, nodes, want.events, want.nodes, want.nodes+gone.nodes)
	}
}
