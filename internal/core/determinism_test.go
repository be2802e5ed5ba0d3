package core

import (
	"reflect"
	"testing"

	"cluseq/internal/datagen"
	"cluseq/internal/seq"
)

// The two-phase reclustering design promises bit-identical results at
// any worker count: the parallel scoring phase is read-only over the
// cluster trees and writes disjoint cache slots, and the cluster-major
// apply phase walks the exact §6.3 order once per cluster, each cluster
// in its own task, re-scoring any pair whose tree changed mid-pass. A
// join mutates only its own cluster's tree, so the tasks never share
// state. These tests pin that promise (and the similarity cache's
// exactness) on the synthetic generator's datasets; CI runs them under
// -race, where both phases' partitioning is also checked mechanically.

func determinismDB(t *testing.T, seed uint64) *seq.Database {
	t.Helper()
	db, err := datagen.SyntheticDB(datagen.SyntheticConfig{
		NumSequences: 150, AvgLength: 80, AlphabetSize: 15,
		NumClusters: 4, OutlierFrac: 0.05, Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	return db
}

// determinismConfigs returns configurations covering the engine's main
// code paths: the plain run; one exercising refinement passes, merge
// consolidation, and random examination order on top; and one where
// §5.1 pruning evicts nodes inside the apply fan-out, under the
// cluster-based order with whole-sequence inserts.
func determinismConfigs() map[string]Config {
	base := Config{
		InitialClusters: 4, Significance: 15, MinDistinct: 3,
		SimilarityThreshold: 1.03, MaxDepth: 4, MaxIterations: 20,
		Seed: 7, FixedSignificance: true,
	}
	extended := base
	extended.RefinePasses = 2
	extended.MergeConsolidation = true
	extended.Order = OrderRandom
	pruned := base
	// A one-sequence seed tree here takes about 61 kB, so the cap lets
	// seeds in whole and every eviction happens on a join.
	pruned.MaxPSTBytes = 100_000
	pruned.Order = OrderClusterBased
	pruned.InsertWhole = true
	return map[string]Config{"base": base, "refine+merge+random": extended, "pruned+cluster-order+whole": pruned}
}

func TestClusterWorkersDeterminism(t *testing.T) {
	db := determinismDB(t, 11)
	for name, cfg := range determinismConfigs() {
		t.Run(name, func(t *testing.T) {
			serial := cfg
			serial.Workers = 1
			parallel := cfg
			parallel.Workers = 8

			a, err := Cluster(db, serial)
			if err != nil {
				t.Fatal(err)
			}
			b, err := Cluster(db, parallel)
			if err != nil {
				t.Fatal(err)
			}
			if len(a.Clusters) == 0 {
				t.Fatal("no clusters found; the determinism check would be vacuous")
			}
			if cfg.MaxPSTBytes > 0 && !anyPruned(a) {
				t.Fatal("no cluster tree was pruned; the pruning case would be vacuous")
			}
			// Full structural equality: memberships, primary assignment,
			// thresholds, and the complete iteration trace — including
			// the cache hit/miss counters, which are themselves
			// deterministic (hits depend only on tree versions, never on
			// worker scheduling).
			if !reflect.DeepEqual(a, b) {
				t.Errorf("Workers=1 and Workers=8 disagree:\nserial:   %+v\nparallel: %+v", summary(a), summary(b))
			}
		})
	}
}

func TestClusterCacheCorrectness(t *testing.T) {
	for _, dbSeed := range []uint64{11, 29} {
		db := determinismDB(t, dbSeed)
		for name, cfg := range determinismConfigs() {
			t.Run(name, func(t *testing.T) {
				cached := cfg
				off := cfg
				off.CacheOff = true

				a, err := Cluster(db, cached)
				if err != nil {
					t.Fatal(err)
				}
				b, err := Cluster(db, off)
				if err != nil {
					t.Fatal(err)
				}
				hits, offHits := 0, 0
				for i := range a.Trace {
					hits += a.Trace[i].CacheHits
					offHits += b.Trace[i].CacheHits
				}
				if a.Iterations > 2 && hits == 0 {
					t.Error("multi-iteration cached run recorded no cache hits")
				}
				if offHits != 0 {
					t.Errorf("CacheOff run recorded %d cache hits, want 0", offHits)
				}
				// The cache may only change how similarities are obtained,
				// never their values: everything but the hit/miss counters
				// must match.
				stripCacheCounters(a)
				stripCacheCounters(b)
				if !reflect.DeepEqual(a, b) {
					t.Errorf("cache on and CacheOff disagree:\ncached: %+v\noff:    %+v", summary(a), summary(b))
				}
			})
		}
	}
}

func anyPruned(r *Result) bool {
	for _, c := range r.Clusters {
		if c.TreeStats.PrunedNodes > 0 {
			return true
		}
	}
	return false
}

func stripCacheCounters(r *Result) {
	for i := range r.Trace {
		r.Trace[i].CacheHits = 0
		r.Trace[i].CacheMisses = 0
	}
}

// summary renders the discriminating parts of a result compactly, so a
// determinism failure prints something a human can diff.
func summary(r *Result) map[string]any {
	members := make([][]int, len(r.Clusters))
	for i, c := range r.Clusters {
		members[i] = c.Members
	}
	return map[string]any{
		"iterations": r.Iterations,
		"threshold":  r.FinalThreshold,
		"members":    members,
		"primary":    r.Primary,
		"trace":      r.Trace,
	}
}
