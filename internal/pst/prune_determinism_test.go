package pst

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand/v2"
	"strings"
	"testing"

	"cluseq/internal/seq"
)

// treeSignature serializes the tree's node set in Walk order. Because Walk
// promises sorted pre-order, two trees with the same content produce the
// same signature regardless of map iteration history.
func treeSignature(tr *Tree) string {
	var b strings.Builder
	tr.Walk(func(x Slot) bool {
		fmt.Fprintf(&b, "%v:%d;", tr.Label(x), tr.Count(x))
		return true
	})
	return b.String()
}

// pruneSurvivorDigests are the SHA-256 digests of TestPruneDeterministic's
// survivor signatures, recorded while the heap still broke key ties by
// walking label paths upward (pathCompare). The (depth, pre-order rank)
// tie-break that replaced it must evict exactly the same nodes.
var pruneSurvivorDigests = map[PruneStrategy]string{
	PruneAuto:           "9f8df95883a689d2a1439db233ca4ab9474a4dcb74447a6a3122b2518f42baeb",
	PruneMinCount:       "f3721613be940ce052ab568767f180ff2e3e952c315cf7bd8b5b83479007fd20",
	PruneLongestLabel:   "f3721613be940ce052ab568767f180ff2e3e952c315cf7bd8b5b83479007fd20",
	PruneExpectedVector: "bfc5d3463b1dabddd84ae4abe135c687d57ceb813c49d67bb42225aa57260dd1",
}

// TestPruneDeterministic rebuilds the same tie-heavy tree from scratch many
// times and prunes it to half size; the surviving node set must be the
// same every time, and the same as before the rank tie-break. Eviction
// among key-tied leaves must follow pruneHeap.less's total order on
// label paths, never the order in which candidates reached the heap.
func TestPruneDeterministic(t *testing.T) {
	for _, strategy := range []PruneStrategy{PruneAuto, PruneMinCount, PruneLongestLabel, PruneExpectedVector} {
		t.Run(strategy.String(), func(t *testing.T) {
			build := func() *Tree {
				tr := MustNew(Config{AlphabetSize: 4, MaxDepth: 5, Significance: 3, Prune: strategy})
				// Identical inserts every trial: a fixed-seed random stream
				// over a small alphabet yields masses of count-1 leaves at
				// equal depth — exactly the key ties the heap must break
				// deterministically.
				rng := rand.New(rand.NewPCG(7, 9))
				for i := 0; i < 10; i++ {
					tr.Insert(randomSymbols(rng, 400, 4))
				}
				return tr
			}
			var want string
			for trial := 0; trial < 20; trial++ {
				tr := build()
				tr.Prune(tr.NumNodes() / 2)
				got := treeSignature(tr)
				if trial == 0 {
					sum := sha256.Sum256([]byte(got))
					if d := hex.EncodeToString(sum[:]); d != pruneSurvivorDigests[strategy] {
						t.Fatalf("survivor signature digest %s, want %s", d, pruneSurvivorDigests[strategy])
					}
					want = got
					continue
				}
				if got != want {
					t.Fatalf("trial %d pruned to a different node set than trial 0", trial)
				}
			}
		})
	}
}

// pathCompare is the tie-break the prune heap used before its rank key:
// (depth, label path read root-to-leaf), shallower first, then
// lexicographic on edge symbols, found by walking both nodes up to their
// deepest common ancestor. It returns 0 only for the identical node. It
// stays here as the oracle for rankLive.
func (t *Tree) pathCompare(a, b Slot) int {
	if a == b {
		return 0
	}
	if da, db := t.depth[a], t.depth[b]; da != db {
		return int(da) - int(db)
	}
	c := 0
	for a != b {
		if d := int(t.edge[a]) - int(t.edge[b]); d != 0 {
			c = d
		}
		a, b = Slot(t.parent[a]), Slot(t.parent[b])
	}
	return c
}

// TestRankMatchesPathCompare checks the prune heap's tie-break key
// against the upward path walk it replaced: on random capped trees —
// reused slots, compacted slabs — the rank orders every pair of live
// nodes as pathCompare does, both when taken and after leaves are
// evicted, as they are during a pass.
func TestRankMatchesPathCompare(t *testing.T) {
	sign := func(v int) int {
		switch {
		case v < 0:
			return -1
		case v > 0:
			return 1
		}
		return 0
	}
	check := func(t *testing.T, tr *Tree, stage string) {
		t.Helper()
		var live []Slot
		tr.Walk(func(x Slot) bool { live = append(live, x); return true })
		for _, a := range live {
			for _, b := range live {
				want := sign(tr.pathCompare(a, b))
				got := sign(int(tr.pruneRank[a]) - int(tr.pruneRank[b]))
				if got != want {
					t.Fatalf("%s: rank orders %v against %v as %d, pathCompare as %d", stage, tr.Label(a), tr.Label(b), got, want)
				}
			}
		}
	}
	for seed := uint64(1); seed <= 6; seed++ {
		strategy := PruneStrategy(seed % 4)
		t.Run(fmt.Sprintf("seed%d-%v", seed, strategy), func(t *testing.T) {
			rng := rand.New(rand.NewPCG(seed, 17))
			alpha := 3 + rng.IntN(6)
			tr := MustNew(Config{AlphabetSize: alpha, MaxDepth: 4 + rng.IntN(4), Significance: 2, MaxBytes: 120 * (136 + 8*alpha), Prune: strategy})
			for i := 0; i < 12; i++ {
				tr.Insert(randomSymbols(rng, 50+rng.IntN(200), alpha))
			}
			if tr.PruneEvents() == 0 {
				t.Fatal("the cap never fired; the tree would not exercise reused slots")
			}
			order := tr.rankLive()
			if len(order) != tr.NumNodes() {
				t.Fatalf("ranked %d nodes, tree holds %d", len(order), tr.NumNodes())
			}
			check(t, tr, "ranked")
			// Evict a third of the nodes leaf by leaf, keeping the ranks.
			for evict := tr.NumNodes() / 3; evict > 0; evict-- {
				var leaves []Slot
				tr.Walk(func(x Slot) bool {
					if x != tr.Root() && tr.runs[x].len == 0 {
						leaves = append(leaves, x)
					}
					return true
				})
				tr.freeLeaf(leaves[rng.IntN(len(leaves))])
			}
			check(t, tr, "after evictions")
		})
	}
}

// TestWalkSortedOrder pins Walk's ordering contract: depth-first pre-order
// with siblings ascending by edge symbol.
func TestWalkSortedOrder(t *testing.T) {
	tr := MustNew(Config{AlphabetSize: 4, MaxDepth: 4, Significance: 1})
	rng := rand.New(rand.NewPCG(3, 5))
	tr.Insert(randomSymbols(rng, 300, 4))

	var prevPath []seq.Symbol // root-to-node symbol path of the previous visit
	first := true
	tr.Walk(func(x Slot) bool {
		// Reconstruct the root-to-node path (Label is oldest-first already
		// reversed; rebuild explicitly from parent links to be contract-free).
		path := make([]seq.Symbol, tr.Depth(x))
		for cur := x; cur != tr.Root(); cur = Slot(tr.parent[cur]) {
			path[tr.depth[cur]-1] = tr.edge[cur]
		}
		if !first && !preOrderLess(prevPath, path) {
			t.Fatalf("Walk visited %v after %v; want sorted pre-order", path, prevPath)
		}
		prevPath, first = path, false
		return true
	})
}

// preOrderLess reports whether path a precedes path b in sorted depth-first
// pre-order: a strict prefix precedes its extensions, and otherwise the
// first differing symbol decides.
func preOrderLess(a, b []seq.Symbol) bool {
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return len(a) < len(b)
}
