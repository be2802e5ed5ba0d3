package pst

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
	x Slot
	// key0 orders across tiers (insignificant before significant under
	// PruneAuto); key1 and key2 order within a tier.
	key0, key1, key2 float64
}

// pruneHeap is a binary min-heap of eviction candidates under less. It
// is typed rather than built on container/heap, whose any-typed Push and
// Pop box every candidate: a capped stream tree evicts thousands of nodes
// per insert.
type pruneHeap struct {
	t     *Tree
	items []pruneItem
}

func (h *pruneHeap) less(a, b pruneItem) bool {
	if a.key0 != b.key0 {
		return a.key0 < b.key0
	}
	if a.key1 != b.key1 {
		return a.key1 < b.key1
	}
	if a.key2 != b.key2 {
		return a.key2 < b.key2
	}
	// Total-order tie-break on the node's label path. Key ties are common
	// (symmetric counts, equal depths), and without a deterministic final
	// comparison the eviction choice among tied leaves would depend on
	// heap insertion order, so a capped tree's surviving node set, and
	// every similarity scored against it, could vary run to run.
	return h.t.pathCompare(a.x, b.x) < 0
}

func (h *pruneHeap) init() {
	for i := len(h.items)/2 - 1; i >= 0; i-- {
		h.down(i)
	}
}

func (h *pruneHeap) push(it pruneItem) {
	h.items = append(h.items, it)
	for i := len(h.items) - 1; i > 0; {
		p := (i - 1) / 2
		if !h.less(h.items[i], h.items[p]) {
			break
		}
		h.items[i], h.items[p] = h.items[p], h.items[i]
		i = p
	}
}

func (h *pruneHeap) pop() pruneItem {
	top := h.items[0]
	last := len(h.items) - 1
	h.items[0] = h.items[last]
	h.items = h.items[:last]
	h.down(0)
	return top
}

func (h *pruneHeap) down(i int) {
	for {
		l := 2*i + 1
		if l >= len(h.items) {
			return
		}
		m := l
		if r := l + 1; r < len(h.items) && h.less(h.items[r], h.items[l]) {
			m = r
		}
		if !h.less(h.items[m], h.items[i]) {
			return
		}
		h.items[i], h.items[m] = h.items[m], h.items[i]
		i = m
	}
}

// pathCompare orders nodes by (depth, label path read root-to-leaf):
// shallower first, then lexicographic on edge symbols. It returns 0 only
// for the identical node, so it is a total order over any one tree. Two
// distinct nodes of equal depth differ first just below their deepest
// common ancestor, which the upward walk reaches last.
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

func (t *Tree) pruneKey(x Slot) pruneItem {
	it := pruneItem{x: x}
	count, depth := float64(t.count[x]), float64(t.depth[x])
	switch t.cfg.Prune {
	case PruneMinCount:
		it.key1 = count
		it.key2 = -depth
	case PruneLongestLabel:
		it.key1 = -depth
		it.key2 = count
	case PruneExpectedVector:
		it.key1 = t.variationalDistance(x)
		it.key2 = -depth
	default: // PruneAuto
		if !t.Significant(x) {
			it.key0 = 0
			it.key1 = count
			it.key2 = -depth
		} else {
			it.key0 = 1
			it.key1 = t.variationalDistance(x)
			it.key2 = -depth
		}
	}
	return it
}

// pruneTo evicts leaves until at most target nodes remain. The root is
// never evicted. When the pass leaves more than compactRatio slots per
// live node, the tree is compacted.
func (t *Tree) pruneTo(target int) {
	if target < 1 {
		target = 1
	}
	t.version++
	t.pruneEvents++
	h := &pruneHeap{t: t}
	for x, d := range t.depth {
		if x != 0 && d != freeDepth && t.runs[x].len == 0 {
			h.items = append(h.items, t.pruneKey(Slot(x)))
		}
	}
	h.init()
	for t.numNodes > target && len(h.items) > 0 {
		x := h.pop().x
		parent := Slot(t.parent[x])
		t.freeLeaf(x)
		t.pruned++
		if parent != t.Root() && t.runs[parent].len == 0 {
			h.push(t.pruneKey(parent))
		}
	}
	if len(t.depth) > compactRatio*t.numNodes {
		t.slabs = t.compacted()
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
