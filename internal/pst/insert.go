package pst

import (
	"cmp"
	"slices"
	"sync"

	"cluseq/internal/seq"
)

// Insert adds one segment's statistics to the tree. This is the operation
// behind both initial construction from a seed sequence and the §4.4
// incremental update with a joining sequence's best-scoring segment:
// conceptually it inserts every suffix of the reversed segment, realized
// here as one pass that, for every position, walks the (reversed) context
// of up to MaxDepth symbols and updates each visited node's occurrence
// count and next-symbol counter.
//
// A capped tree whose eviction order is monotone along root paths
// (PruneMinCount, PruneLongestLabel, PruneAuto) takes the survivor-only
// insert instead: the result is the same tree, but the contexts the
// prune pass would evict again are never built (see insertCapped).
func (t *Tree) Insert(segment []seq.Symbol) {
	l := len(segment)
	if l == 0 {
		return
	}
	if t.maxNodes > 0 && t.cfg.Prune != PruneExpectedVector && !t.heapOnly {
		t.insertCapped(segment)
		return
	}
	L, n := t.cfg.MaxDepth, t.cfg.AlphabetSize
	for i := 0; i < l; i++ {
		sym := segment[i]
		// The empty context: the root's count is the total symbol count.
		t.count[0]++
		t.pages[0][sym]++
		x := t.Root()
		for d := 1; d <= L && i-d >= 0; d++ {
			x = t.ensureChild(x, segment[i-d])
			t.count[x]++
			t.pages[x>>pageShift][int(x&pageMask)*n+int(sym)]++
		}
	}
	// Contexts ending at the final position occur without a successor;
	// count the occurrences so that Count is the exact occurrence count of
	// every label (§3: "a count C is associated with each node to record
	// the number of occurrences of its label").
	x := t.Root()
	for d := 1; d <= L && l-d >= 0; d++ {
		x = t.ensureChild(x, segment[l-d])
		t.count[x]++
	}
	t.insertions += int64(l)
	t.version++
	if t.maxNodes > 0 && t.numNodes > t.maxNodes {
		t.pruneTo(t.maxNodes * 9 / 10)
		t.compactIfSparse()
	}
}

// compactIfSparse ends a capped insert that pruned. Besides pruneTo's
// slot ratio it compacts the tree when the child arena holds more than
// compactRatio entries per live edge: a survivor-only insert refills
// mostly the slots its pass freed, so the slabs stay put, but every run
// that outgrows its capacity moves to the arena's end and leaves its old
// space behind.
func (t *Tree) compactIfSparse() {
	if len(t.depth) > compactRatio*t.numNodes || len(t.kidSym) > compactRatio*(t.numNodes-1) {
		t.slabs = t.compacted()
	}
}

// The survivor-only insert. Under PruneMinCount, PruneLongestLabel and
// the insignificant tier of PruneAuto a child's prune key is strictly
// below its parent's: counts never grow with depth, and equal counts sit
// at different depths. The smallest remaining node is therefore always a
// leaf, so pruneTo's heap, popping the smallest leaf each time, evicts
// exactly the k globally smallest nodes by the strategy's key with the
// (depth, label path) tie-break. insertCapped evicts that set directly:
//
//  1. It adds the segment's counts to the nodes that already exist and
//     builds its new contexts only in a count-only overlay.
//  2. When the cap overflows, it selects the k = nodes − target smallest
//     of the live and overlay nodes, frees the live ones and drops the
//     overlay ones.
//  3. It materializes the surviving overlay nodes, and a second pass over
//     the segment gives them their next-symbol rows.
//
// The evicted set is closed downwards (a selected node's descendants have
// smaller keys), so the live nodes it frees are a set of whole subtrees
// and the overlay nodes that survive hang from live or surviving parents.
// A PruneAuto pass whose k exceeds the insignificant nodes must reach the
// significant tier, whose expected-vector order is not monotone: it drops
// the whole insignificant tier this way (the heap pass's first pops) and
// runs the heap pass over the significant nodes that remain.
// PruneExpectedVector, Merge, InsertCounts and Prune materialize every
// context and run the heap pass.

// overlayNode is a new context of the segment being inserted.
type overlayNode struct {
	// parent is a live slot (≥ 0) or ^id of a parent overlay node.
	parent int32
	depth  int32
	// first and next link the overlay children of a node, unsorted; -1
	// ends a list.
	first, next int32
	// slot is the materialized slot once materialize has run, or evicted.
	slot  int32
	edge  seq.Symbol
	count int64
}

const evicted = -1

// evictCandidate is one node the survivor-only pass may evict, ordered
// by (k1, k2) and then by label path (see Tree.pathOrder).
type evictCandidate struct {
	k1, k2 int64
	// ref is a live slot (≥ 0) or ^id of an overlay node.
	ref int32
}

// insertScratch is the survivor-only insert's working memory. Each insert
// takes one from insertScratches for its duration: the batch apply phase
// inserts into different trees concurrently, and a scratch kept on every
// tree would add its high-water mark, sized by the largest insert's new
// contexts, to each tree. Reuse keeps a capped tree's steady state free
// of allocations until a collection empties the pool.
type insertScratch struct {
	nodes []overlayNode
	// head holds, per live slot, its first overlay child (-1 for none);
	// headSet lists the slots whose entry is set, to reset them.
	head    []int32
	headSet []int32
	// firstNew holds, per segment position, the first overlay node on the
	// position's context walk (-1 when the whole walk was live).
	firstNew []int32
	cands    []evictCandidate
}

var insertScratches = sync.Pool{New: func() any { return new(insertScratch) }}

// overlayChild returns the overlay child of ref along edge s, creating it
// when absent.
func (t *Tree) overlayChild(ref int32, s seq.Symbol) int32 {
	ov := t.ins
	var o, depth int32
	if ref >= 0 {
		o, depth = ov.head[ref], t.depth[ref]
	} else {
		o, depth = ov.nodes[^ref].first, ov.nodes[^ref].depth
	}
	for ; o >= 0; o = ov.nodes[o].next {
		if ov.nodes[o].edge == s {
			return o
		}
	}
	o = int32(len(ov.nodes))
	nd := overlayNode{parent: ref, depth: depth + 1, first: -1, edge: s}
	if ref >= 0 {
		nd.next = ov.head[ref]
		if nd.next < 0 {
			ov.headSet = append(ov.headSet, ref)
		}
		ov.head[ref] = o
	} else {
		nd.next = ov.nodes[^ref].first
		ov.nodes[^ref].first = o
	}
	ov.nodes = append(ov.nodes, nd)
	return o
}

// countContext advances a context walk from ref along edge s and counts
// one occurrence there: on the live child when it exists, otherwise on
// the overlay. A live child also counts its successor sym when hasNext;
// overlay nodes get their rows only if they survive.
func (t *Tree) countContext(ref int32, s, sym seq.Symbol, hasNext bool) int32 {
	if ref >= 0 {
		if c := t.lookupChild(Slot(ref), s); c != NoSlot {
			t.count[c]++
			if hasNext {
				t.pages[c>>pageShift][int(c&pageMask)*t.cfg.AlphabetSize+int(sym)]++
			}
			return int32(c)
		}
	}
	o := t.overlayChild(ref, s)
	t.ins.nodes[o].count++
	return ^o
}

// insertCapped is Insert for a capped tree under a monotone eviction
// order (see the comment above overlayNode).
func (t *Tree) insertCapped(segment []seq.Symbol) {
	l, L := len(segment), t.cfg.MaxDepth
	ov := insertScratches.Get().(*insertScratch)
	t.ins = ov
	defer func() {
		t.ins = nil
		insertScratches.Put(ov)
	}()
	for len(ov.head) < len(t.depth) {
		ov.head = append(ov.head, -1)
	}
	ov.firstNew = slices.Grow(ov.firstNew[:0], l)[:l]
	for i := 0; i < l; i++ {
		sym := segment[i]
		t.count[0]++
		t.pages[0][sym]++
		ref, first := int32(0), int32(-1)
		for d := 1; d <= L && i-d >= 0; d++ {
			ref = t.countContext(ref, segment[i-d], sym, true)
			if ref < 0 && first < 0 {
				first = ^ref
			}
		}
		ov.firstNew[i] = first
	}
	ref := int32(0)
	for d := 1; d <= L && l-d >= 0; d++ {
		ref = t.countContext(ref, segment[l-d], 0, false)
	}
	t.insertions += int64(l)
	t.version++

	target := max(t.maxNodes*9/10, 1)
	total := t.numNodes + len(ov.nodes)
	if total <= t.maxNodes {
		t.materialize(segment)
		return
	}
	t.version++
	t.pruneEvents++
	finish := t.selectEvictions(total - target)
	t.materialize(segment)
	if finish {
		t.evictLeaves(target)
	} else {
		t.survivorInserts++
	}
	t.compactIfSparse()
}

// selectEvictions picks the k nodes the heap pass would evict, frees the
// live ones among them and marks the overlay ones evicted. When PruneAuto
// must evict more than the insignificant nodes, it evicts all of those —
// the heap pass's first pops — and reports that the heap pass has to
// finish over the significant nodes that remain.
func (t *Tree) selectEvictions(k int) bool {
	ov := t.ins
	auto := t.cfg.Prune == PruneAuto
	sig := int64(t.EffectiveSignificance())
	key := func(count int64, depth int32, ref int32) evictCandidate {
		if t.cfg.Prune == PruneLongestLabel {
			return evictCandidate{k1: -int64(depth), k2: count, ref: ref}
		}
		return evictCandidate{k1: count, k2: -int64(depth), ref: ref}
	}
	cands := ov.cands[:0]
	for x := 1; x < len(t.depth); x++ {
		if d := t.depth[x]; d != freeDepth && (!auto || t.count[x] < sig) {
			cands = append(cands, key(t.count[x], d, int32(x)))
		}
	}
	for o, nd := range ov.nodes {
		if !auto || nd.count < sig {
			cands = append(cands, key(nd.count, nd.depth, ^int32(o)))
		}
	}
	ov.cands = cands
	finish := len(cands) < k
	if finish {
		k = len(cands)
	} else {
		t.selectSmallest(cands, k)
	}
	t.pruned += int64(k)
	for _, c := range cands[:k] {
		if c.ref >= 0 {
			// Any order frees a closed-downwards set: each freed node's
			// children are freed too, so no run is left pointing at it.
			t.freeLeaf(Slot(c.ref))
		} else {
			ov.nodes[^c.ref].slot = evicted
		}
	}
	return finish
}

// selectSmallest reorders cands so that its first k entries are the k
// smallest in the prune order: a quickselect with three-way partitions on
// (k1, k2), whose final tie group — one depth, one key — is sorted by
// label path.
func (t *Tree) selectSmallest(cands []evictCandidate, k int) {
	order := func(a, b evictCandidate) int {
		if c := cmp.Compare(a.k1, b.k1); c != 0 {
			return c
		}
		return cmp.Compare(a.k2, b.k2)
	}
	lo, hi := 0, len(cands)
	for lo < hi {
		a, b, c := cands[lo], cands[lo+(hi-lo)/2], cands[hi-1]
		// The median of three as pivot.
		if order(a, b) > 0 {
			a, b = b, a
		}
		if order(b, c) > 0 {
			b = c
			if order(a, b) > 0 {
				b = a
			}
		}
		pivot := b
		lt, i, gt := lo, lo, hi
		for i < gt {
			switch c := order(cands[i], pivot); {
			case c < 0:
				cands[lt], cands[i] = cands[i], cands[lt]
				lt++
				i++
			case c > 0:
				gt--
				cands[i], cands[gt] = cands[gt], cands[i]
			default:
				i++
			}
		}
		switch {
		case k < lt:
			hi = lt
		case k > gt:
			lo = gt
		default:
			if lt < k && k < gt {
				slices.SortFunc(cands[lt:gt], func(a, b evictCandidate) int { return t.pathOrder(a.ref, b.ref) })
			}
			return
		}
	}
}

// pathOrder compares two distinct live or overlay nodes of equal depth by
// their root-to-node label paths, the order rankLive gives nodes of one
// level: it walks both up to their deepest common ancestor, and the
// topmost differing edge decides.
func (t *Tree) pathOrder(a, b int32) int {
	c := 0
	for a != b {
		ea, pa := t.refEdge(a)
		eb, pb := t.refEdge(b)
		if ea != eb {
			c = int(ea) - int(eb)
		}
		a, b = pa, pb
	}
	return c
}

// refEdge returns a live or overlay node's edge symbol and parent.
func (t *Tree) refEdge(ref int32) (seq.Symbol, int32) {
	if ref >= 0 {
		return t.edge[ref], t.parent[ref]
	}
	nd := &t.ins.nodes[^ref]
	return nd.edge, nd.parent
}

// materialize turns the overlay nodes that are not evicted into live
// nodes, parents first, and then walks the segment's contexts once more
// to give them their next-symbol rows. It leaves the scratch reset.
func (t *Tree) materialize(segment []seq.Symbol) {
	ov := t.ins
	for o := range ov.nodes {
		nd := &ov.nodes[o]
		if nd.slot == evicted {
			continue
		}
		p := Slot(nd.parent)
		if nd.parent < 0 {
			p = Slot(ov.nodes[^nd.parent].slot)
		}
		syms, _ := t.kids(p)
		i, _ := searchRun(syms, nd.edge)
		x := t.newSlot(p, nd.edge)
		t.insertKid(p, i, nd.edge, x)
		t.count[x] = nd.count
		nd.slot = int32(x)
	}
	L, n := int32(t.cfg.MaxDepth), t.cfg.AlphabetSize
	for i, o := range ov.firstNew {
		sym := segment[i]
		for o >= 0 {
			nd := ov.nodes[o]
			if nd.slot == evicted {
				break
			}
			x := Slot(nd.slot)
			t.pages[x>>pageShift][int(x&pageMask)*n+int(sym)]++
			up := i - int(nd.depth) - 1 // the next context's oldest symbol
			if nd.depth == L || up < 0 {
				break
			}
			o = t.overlayChild(^o, segment[up]) // built by the first pass
		}
	}
	for _, x := range ov.headSet {
		ov.head[x] = -1
	}
	ov.headSet = ov.headSet[:0]
	ov.nodes = ov.nodes[:0]
}
