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
// by strategy and cap. They were recorded by cappedResultDigest, which
// leaves SnapshotCompiles out of the trace, at the commit before
// compiles kept only the root and the significant nodes and the apply
// phase began to recompile a stale snapshot: neither may change an
// assignment, a threshold or a tree byte. The capped rows pin capped
// inserts, the shrinkage8 rows shrinkage scans, and the uncapped rows,
// adaptive and fixed significance, the trees whose compiles drop the
// most nodes.
var cappedGoldenDigests = map[string]string{
	"auto/cap32k":            "7780700d0a5c37849e5229bb0fac41702758e68f21bf6b7f567bd5763d09279a",
	"auto/cap96k":            "33d4378580f337ec1ef1a3e424167e6d151d5351548734f86baab51fc13f282f",
	"min_count/cap32k":       "2c30c070f3406a4c7a812d6745a609437ffbb023ab7ce581121dc3dc72f02a75",
	"min_count/cap96k":       "f9e62f1cd7cb07c87548dc2661e9e879621feecc562890107b5794e81082a33c",
	"longest_label/cap32k":   "657baddf77fa593edf09fc37c64713a563d1c2454a56b8d9b2dcef6f6448408e",
	"longest_label/cap96k":   "7a477d952a370bcccb3810a5cbcdfa895e2f818afaa5e5f35efd42c55a2549ad",
	"expected_vector/cap32k": "adfb78815ae7c8634e145d2308d8ea86e04e8f7ff3ccd080aa640ce120e300fe",
	"expected_vector/cap96k": "dc69228e4922d29750780c07fea017a69044d01aa3bf4c1b16c03721af233fce",
	"adaptive/uncapped":      "860a9acc73da1d513844648f03517874b3f9659c9d39b11889ef44b2d329f89e",
	"fixed/uncapped":         "411ebeda979be857797ad3ca1e2dc39297864626b736ae66b441d2be3d57c9cf",
	"shrinkage8/uncapped":    "bca892a55b5e9a8db6b1b5128eb0613da61278fb13f94c34c94d5c5dd9eba222",
	"shrinkage8/cap96k":      "cbc51208fabbed97f80538d8d6564f895de6151834c9ff05c52467f8b17fcd13",
}

// cappedResultDigest hashes everything a capped batch run decides: the
// iteration count, final threshold and per-iteration trace, every
// cluster's membership, seed and tree statistics together with its
// tree's PSTv1 bytes, and the unclustered and primary assignments. The
// trace is hashed without SnapshotCompiles: that field counts work, not
// a decision, and when the engine compiles is free to change.
func cappedResultDigest(t *testing.T, r *Result) string {
	t.Helper()
	h := sha256.New()
	fmt.Fprintf(h, "iterations %d threshold %x\n", r.Iterations, math.Float64bits(r.FinalThreshold))
	for _, it := range r.Trace {
		it.SnapshotCompiles = 0
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
// the shrinkage estimator's scans through the compile fan-outs, and the
// uncapped rows the default estimator's, whose apply phase recompiles
// stale snapshots of trees that mostly hold insignificant nodes.
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
	for _, fixed := range []bool{false, true} {
		cfg := base
		cfg.FixedSignificance = fixed
		name := "adaptive/uncapped"
		if fixed {
			name = "fixed/uncapped"
		}
		rows = append(rows, row{name, cfg})
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
