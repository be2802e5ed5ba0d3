package pst

import "cluseq/internal/seq"

// Node storage. A Tree keeps its nodes in struct-of-arrays slabs indexed
// by Slot, the root at slot 0: no per-node Go objects and no maps, so the
// garbage collector has nothing to trace inside a tree and every walk
// reads a few contiguous arrays.
//
//   - parent, edge, depth and count hold one entry per slot. A slot that
//     pruning freed has depth freeDepth until a later insert reuses it.
//   - A node's children form a run of the shared kidSym/kidSlot arena,
//     sorted by edge symbol; runs[x] holds the run's offset, length and
//     reserved capacity. A full run moves to the arena's end with doubled
//     capacity. Sorted runs hand Walk, Save, Merge and CompileSnapshot
//     their sibling order without sorting.
//   - Next-symbol counts live in pages of pageSlots rows of n int64s, so
//     growing the tree never copies the counts already stored. A page
//     holding fewer than pageSlots rows doubles when it fills; a new page
//     beyond the first starts full.

// Slot identifies one node of a Tree. Pruning frees slots for reuse and
// compaction renumbers them, so a Slot is valid only until the tree's
// next mutation.
type Slot int32

// NoSlot is the Slot returned for a node that does not exist.
const NoSlot Slot = -1

const (
	pageShift = 8
	pageSlots = 1 << pageShift // node rows per next-count page
	pageMask  = pageSlots - 1

	// linearRunMax is the longest child run searched linearly; longer
	// runs (the root and shallow nodes of large alphabets) use binary
	// search.
	linearRunMax = 8

	// compactRatio bounds slots per live node after a prune pass: beyond
	// it the tree is rebuilt into exactly sized slabs, so a capped tree
	// does not keep the high-water mark of its largest insert.
	compactRatio = 2

	freeDepth = -1
)

// childRun locates one node's children in the arena.
type childRun struct{ off, len, cap int32 }

// slabs is the node storage of a Tree (see the comment at the top of this
// file).
type slabs struct {
	parent []int32
	edge   []seq.Symbol
	depth  []int32
	count  []int64
	runs   []childRun

	kidSym  []seq.Symbol
	kidSlot []int32

	pages [][]int64
	free  []int32
}

// rootSlabs returns the storage of a tree holding only an empty root.
func rootSlabs(n int) slabs {
	return slabs{
		parent: []int32{-1},
		edge:   []seq.Symbol{0},
		depth:  []int32{0},
		count:  []int64{0},
		runs:   []childRun{{}},
		pages:  [][]int64{make([]int64, n)},
	}
}

// nextRow returns slot x's next-symbol counts.
//
//cluseq:hotpath
func (t *Tree) nextRow(x Slot) []int64 {
	n := t.cfg.AlphabetSize
	off := int(x&pageMask) * n
	return t.pages[x>>pageShift][off : off+n : off+n]
}

// kids returns x's child run: edge symbols ascending and the matching
// slots.
//
//cluseq:hotpath
func (t *Tree) kids(x Slot) ([]seq.Symbol, []int32) {
	r := t.runs[x]
	lo, hi := int(r.off), int(r.off+r.len)
	return t.kidSym[lo:hi], t.kidSlot[lo:hi]
}

// searchRun returns the index of s in the ascending run syms, or the
// index where s would be inserted and false. Both searches turn each
// comparison into arithmetic (see below), so a probe's outcome never costs
// a mispredicted branch.
//
//cluseq:hotpath
func searchRun(syms []seq.Symbol, s seq.Symbol) (int, bool) {
	i := 0
	if len(syms) <= linearRunMax {
		for _, c := range syms {
			i += below(c, s)
		}
	} else {
		for n := len(syms); n > 1; {
			half := n >> 1
			i += half & -below(syms[i+half], s)
			n -= half
		}
		i += below(syms[i], s)
	}
	return i, i < len(syms) && syms[i] == s
}

// below returns 1 when a < b and 0 otherwise, from the sign of a−b.
//
//cluseq:hotpath
func below(a, b seq.Symbol) int {
	return int(uint(int(a)-int(b)) >> 63)
}

// ensureChild returns x's child along edge symbol s, creating it when
// absent. It mutates the tree, so only the construction paths (Insert,
// InsertCounts, Merge) may call it.
func (t *Tree) ensureChild(x Slot, s seq.Symbol) Slot {
	syms, slots := t.kids(x)
	i, ok := searchRun(syms, s)
	if ok {
		return Slot(slots[i])
	}
	c := t.newSlot(x, s)
	t.insertKid(x, i, s, c)
	return c
}

// newSlot takes a free slot, or appends one, for a new childless node
// under parent along edge s. It does not link the node into parent's run.
func (t *Tree) newSlot(parent Slot, s seq.Symbol) Slot {
	var x Slot
	if k := len(t.free); k > 0 {
		x = Slot(t.free[k-1])
		t.free = t.free[:k-1]
		t.count[x] = 0
		clear(t.nextRow(x))
		// The run keeps its arena space (pruning frees only leaves, so
		// its length is already zero) for the new node to reuse.
	} else {
		x = t.appendSlot()
	}
	t.parent[x] = int32(parent)
	t.edge[x] = s
	t.depth[x] = t.depth[parent] + 1
	t.numNodes++
	return x
}

// appendSlot grows every slab by one zeroed slot.
func (t *Tree) appendSlot() Slot {
	x := len(t.parent)
	t.parent = append(t.parent, 0)
	t.edge = append(t.edge, 0)
	t.depth = append(t.depth, 0)
	t.count = append(t.count, 0)
	t.runs = append(t.runs, childRun{})
	n := t.cfg.AlphabetSize
	p, end := x>>pageShift, (x&pageMask+1)*n
	if p == len(t.pages) {
		t.pages = append(t.pages, make([]int64, pageSlots*n))
	} else if end > len(t.pages[p]) {
		grown := make([]int64, min(2*len(t.pages[p]), pageSlots*n))
		copy(grown, t.pages[p])
		t.pages[p] = grown
	}
	return Slot(x)
}

// insertKid links child c into x's run at index i, the sorted position
// of its edge symbol s. A full run moves to the arena's end with doubled
// capacity.
func (t *Tree) insertKid(x Slot, i int, s seq.Symbol, c Slot) {
	if r := t.runs[x]; r.len == r.cap {
		t.growRun(x, max(2*r.cap, 2))
	}
	r := &t.runs[x]
	lo, hi := int(r.off), int(r.off+r.len)+1
	syms, slots := t.kidSym[lo:hi], t.kidSlot[lo:hi]
	copy(syms[i+1:], syms[i:])
	copy(slots[i+1:], slots[i:])
	syms[i], slots[i] = s, int32(c)
	r.len++
}

// growRun moves x's run to the arena's end with room for c children.
func (t *Tree) growRun(x Slot, c int32) {
	r := &t.runs[x]
	off := int32(len(t.kidSym))
	t.kidSym = append(t.kidSym, make([]seq.Symbol, c)...)
	t.kidSlot = append(t.kidSlot, make([]int32, c)...)
	copy(t.kidSym[off:], t.kidSym[r.off:r.off+r.len])
	copy(t.kidSlot[off:], t.kidSlot[r.off:r.off+r.len])
	r.off, r.cap = off, c
}

// freeLeaf unlinks leaf x from its parent's run and puts its slot on the
// free list.
func (t *Tree) freeLeaf(x Slot) {
	p := Slot(t.parent[x])
	syms, slots := t.kids(p)
	i, _ := searchRun(syms, t.edge[x])
	copy(syms[i:], syms[i+1:])
	copy(slots[i:], slots[i+1:])
	t.runs[p].len--
	t.depth[x] = freeDepth
	t.free = append(t.free, int32(x))
	t.numNodes--
}

// compacted returns a copy of the live nodes in exactly sized slabs,
// renumbered in Walk's sorted pre-order with each run reserving exactly
// its children.
func (t *Tree) compacted() slabs {
	num, n := t.numNodes, t.cfg.AlphabetSize
	c := slabs{
		parent:  make([]int32, num),
		edge:    make([]seq.Symbol, num),
		depth:   make([]int32, num),
		count:   make([]int64, num),
		runs:    make([]childRun, num),
		kidSym:  make([]seq.Symbol, num-1),
		kidSlot: make([]int32, num-1),
		pages:   make([][]int64, (num+pageMask)>>pageShift),
	}
	for p := range c.pages {
		c.pages[p] = make([]int64, min(num-p*pageSlots, pageSlots)*n)
	}
	// Each stack entry is an old slot, its new parent and the arena entry
	// that links it there; new slots are handed out in pop order.
	type pending struct {
		old, parent Slot
		link        int32
	}
	stack := []pending{{old: 0, parent: -1, link: -1}}
	next, arena := Slot(0), int32(0)
	for len(stack) > 0 {
		e := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		x := next
		next++
		if e.link >= 0 {
			c.kidSlot[e.link] = int32(x)
		}
		c.parent[x] = int32(e.parent)
		c.edge[x] = t.edge[e.old]
		c.depth[x] = t.depth[e.old]
		c.count[x] = t.count[e.old]
		off := int(x&pageMask) * n
		copy(c.pages[x>>pageShift][off:off+n], t.nextRow(e.old))
		syms, slots := t.kids(e.old)
		k := int32(len(syms))
		c.runs[x] = childRun{off: arena, len: k, cap: k}
		copy(c.kidSym[arena:], syms)
		for j := k - 1; j >= 0; j-- {
			stack = append(stack, pending{old: Slot(slots[j]), parent: x, link: arena + j})
		}
		arena += k
	}
	return c
}
