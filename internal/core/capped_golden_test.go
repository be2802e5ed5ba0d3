package core

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"testing"

	"cluseq/internal/pst"
)

// cappedGoldenCaps are the two §5.1 budgets of the capped batch golden:
// with the alphabet of determinismDB a node is estimated at 256 bytes,
// so they hold 128 and 384 nodes, both below a seed tree's size at
// depth 6.
var cappedGoldenCaps = []int{32 << 10, 96 << 10}

// cappedGoldenDigests are TestCappedBatchGolden's result digests, keyed
// by strategy and cap, recorded while every capped insert still
// materialized all of its new contexts before the prune pass evicted
// most of them again. Inserting only the contexts that survive the cap
// must leave every assignment and every tree byte as it was. The
// shrinkage8 rows were recorded while shrinkage snapshots still
// delegated every scan to the tree; compiling them into per-node score
// rows must leave those results as they were too.
var cappedGoldenDigests = map[string]string{
	"auto/cap32k":            "f7ad75fe73e21fe6f55d7aaeac81584614f413ceeca6235060609da509e23614",
	"auto/cap96k":            "c7deeadee1d8827b5bab6c1ce19dfeaec56a248ca17f9709d9f23fc3159d679e",
	"min_count/cap32k":       "00f3b5e00a5e10eab546acb8864fc6f4758064ccecc6c9e6af8cbf0cf83b77e9",
	"min_count/cap96k":       "b7dfd80033599c781f0ea0f19a3f653afa7765614db106deee7bec0513c58058",
	"longest_label/cap32k":   "c8aea92f331dfa6c1458d1e4ff8449d2ed69d81c3af078df0268f268ca38d699",
	"longest_label/cap96k":   "8d44b7da6da9bcc94bc862682b00fd0ae790c0212272d44c91c2fa0dd32f67a5",
	"expected_vector/cap32k": "88ec3d85162c2f8a58333d7ee0821e70d91aa2ea4e9a3a28f6018d9f504ea4de",
	"expected_vector/cap96k": "73cd469df06c438ae4e7b3a2a3719aaf8f49f8cad54234d43f8a622239ef75eb",
	"shrinkage8/uncapped":    "63a1d60b6c10b8d52382cc6664c66ba6bc307664b4ca2f21f399cf4603c7ebf6",
	"shrinkage8/cap96k":      "4ac586875432c4b40518b8a4e55f0d7f3d04b782cc8a2186ec4756504192658e",
}

// cappedResultDigest hashes everything a capped batch run decides: the
// iteration count, final threshold and per-iteration trace, every
// cluster's membership, seed and tree statistics together with its
// tree's PSTv1 bytes, and the unclustered and primary assignments.
func cappedResultDigest(t *testing.T, r *Result) string {
	t.Helper()
	h := sha256.New()
	fmt.Fprintf(h, "iterations %d threshold %x\n", r.Iterations, math.Float64bits(r.FinalThreshold))
	for _, it := range r.Trace {
		fmt.Fprintf(h, "trace %+v\n", it)
	}
	for _, c := range r.Clusters {
		fmt.Fprintf(h, "cluster %d seed %d members %v stats %+v\n", c.ID, c.SeedIndex, c.Members, c.TreeStats)
		if err := c.Tree.Save(h); err != nil {
			t.Fatal(err)
		}
	}
	fmt.Fprintf(h, "unclustered %v\nprimary %v\n", r.Unclustered, r.Primary)
	return hex.EncodeToString(h.Sum(nil))
}

// TestCappedBatchGolden pins the batch engine's capped results — whose
// apply phase inserts into capped trees, concurrently across clusters
// at Workers 2 — to digests recorded before capped inserts stopped
// materializing the contexts their own prune pass evicts. Adaptive
// significance leaves a fresh tree with every node significant, so
// PruneAuto passes take both the insignificant-only order and the
// expected-vector tier. The shrinkage rows, uncapped and capped, pin
// the shrinkage estimator's scans through the compile fan-outs.
func TestCappedBatchGolden(t *testing.T) {
	db := determinismDB(t, 11)
	base := Config{
		InitialClusters: 4, Significance: 15, MinDistinct: 3,
		SimilarityThreshold: 1.03, MaxDepth: 6, MaxIterations: 20,
		Seed: 7, KeepTrees: true,
	}
	type row struct {
		name string
		cfg  Config
	}
	var rows []row
	for _, strategy := range []pst.PruneStrategy{pst.PruneAuto, pst.PruneMinCount, pst.PruneLongestLabel, pst.PruneExpectedVector} {
		for _, capBytes := range cappedGoldenCaps {
			cfg := base
			cfg.MaxPSTBytes, cfg.Prune = capBytes, strategy
			rows = append(rows, row{fmt.Sprintf("%v/cap%dk", strategy, capBytes>>10), cfg})
		}
	}
	for _, capBytes := range []int{0, cappedGoldenCaps[1]} {
		cfg := base
		cfg.MaxPSTBytes, cfg.Shrinkage = capBytes, 8
		name := "shrinkage8/uncapped"
		if capBytes > 0 {
			name = fmt.Sprintf("shrinkage8/cap%dk", capBytes>>10)
		}
		rows = append(rows, row{name, cfg})
	}
	for _, r := range rows {
		for _, workers := range []int{1, 2} {
			t.Run(fmt.Sprintf("%s/workers%d", r.name, workers), func(t *testing.T) {
				cfg := r.cfg
				cfg.Workers = workers
				res, err := Cluster(db, cfg)
				if err != nil {
					t.Fatal(err)
				}
				if cfg.MaxPSTBytes > 0 && !anyPruned(res) {
					t.Fatal("no cluster tree was pruned; the golden would not pin capped inserts")
				}
				if got, want := cappedResultDigest(t, res), cappedGoldenDigests[r.name]; got != want {
					t.Fatalf("result digest %s, want %s", got, want)
				}
			})
		}
	}
}
