package pst

import (
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

// TestPruneDeterministic rebuilds the same tie-heavy tree from scratch many
// times and prunes it to half size; the surviving node set must be the
// same every time. Eviction among key-tied leaves must follow
// pruneHeap.less's total order on label paths, never the order in which
// candidates reached the heap.
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
