package pst

import (
	"container/heap"
)

// Pruning (paper §5.1). Eviction proceeds bottom-up over current leaves —
// evicting a leaf may expose its parent as the next candidate — driven by a
// min-heap whose ordering encodes the chosen strategy:
//
//   - PruneMinCount: smallest count first. Because a context's occurrences
//     are a subset of its suffix's, counts never increase with depth, so
//     the globally smallest-count nodes are always reachable as leaves and
//     the bottom-up order realizes the strategy exactly.
//   - PruneLongestLabel: deepest node first; likewise exact bottom-up.
//   - PruneExpectedVector: smallest variational distance between the
//     node's probability vector and its parent's, so the parent (which
//     substitutes in later estimations) distorts similarity the least.
//   - PruneAuto: insignificant leaves first by (count, then depth), then
//     significant leaves by expected-vector distance — the order §5.1
//     presents the strategies in.

type pruneItem struct {
	n *Node
	// key0 orders across tiers (insignificant before significant under
	// PruneAuto); key1 and key2 order within a tier.
	key0, key1, key2 float64
}

type pruneHeap []pruneItem

func (h pruneHeap) Len() int { return len(h) }
func (h pruneHeap) Less(i, j int) bool {
	if h[i].key0 != h[j].key0 {
		return h[i].key0 < h[j].key0
	}
	if h[i].key1 != h[j].key1 {
		return h[i].key1 < h[j].key1
	}
	if h[i].key2 != h[j].key2 {
		return h[i].key2 < h[j].key2
	}
	// Total-order tie-break on the node's label path. Key ties are common
	// (symmetric counts, equal depths), and without a deterministic final
	// comparison the eviction choice among tied leaves depends on heap
	// insertion order — i.e. on map iteration history — so a capped tree's
	// surviving node set, and every similarity scored against it, would
	// vary run to run.
	return pathCompare(h[i].n, h[j].n) < 0
}

// pathCompare orders nodes by (depth, label path read root-to-leaf):
// shallower first, then lexicographic on edge symbols. It returns 0 only
// for the identical node, so it is a total order over any one tree.
// Recursion is bounded by the tree's depth cap.
func pathCompare(a, b *Node) int {
	if a == b {
		return 0
	}
	if a.depth != b.depth {
		return a.depth - b.depth
	}
	if c := pathCompare(a.parent, b.parent); c != 0 {
		return c
	}
	return int(a.symbol) - int(b.symbol)
}
func (h pruneHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *pruneHeap) Push(x any)   { *h = append(*h, x.(pruneItem)) }
func (h *pruneHeap) Pop() any {
	old := *h
	n := len(old)
	it := old[n-1]
	*h = old[:n-1]
	return it
}

func (t *Tree) pruneKey(n *Node) pruneItem {
	it := pruneItem{n: n}
	switch t.cfg.Prune {
	case PruneMinCount:
		it.key1 = float64(n.Count)
		it.key2 = -float64(n.depth)
	case PruneLongestLabel:
		it.key1 = -float64(n.depth)
		it.key2 = float64(n.Count)
	case PruneExpectedVector:
		it.key1 = variationalDistance(n, n.parent)
		it.key2 = -float64(n.depth)
	default: // PruneAuto
		if !t.Significant(n) {
			it.key0 = 0
			it.key1 = float64(n.Count)
			it.key2 = -float64(n.depth)
		} else {
			it.key0 = 1
			it.key1 = variationalDistance(n, n.parent)
			it.key2 = -float64(n.depth)
		}
	}
	return it
}

// pruneTo evicts leaves until at most target nodes remain. The root is
// never evicted.
func (t *Tree) pruneTo(target int) {
	if target < 1 {
		target = 1
	}
	t.version++
	t.pruneEvents++
	h := &pruneHeap{}
	t.Walk(func(n *Node) bool {
		if n != t.root && len(n.children) == 0 {
			*h = append(*h, t.pruneKey(n))
		}
		return true
	})
	heap.Init(h)
	for t.numNodes > target && h.Len() > 0 {
		it := heap.Pop(h).(pruneItem)
		n := it.n
		parent := n.parent
		delete(parent.children, n.symbol)
		n.parent = nil
		t.numNodes--
		t.pruned++
		if parent != t.root && len(parent.children) == 0 {
			heap.Push(h, t.pruneKey(parent))
		}
	}
}

// Prune manually shrinks the tree to at most target nodes using the
// configured strategy. It is exposed for the Figure 4 experiments, which
// sweep the PST memory budget explicitly.
func (t *Tree) Prune(target int) {
	if target < t.numNodes {
		t.pruneTo(target)
	}
}
