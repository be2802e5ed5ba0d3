package pst

import (
	"fmt"
	"math"

	"cluseq/internal/seq"
)

// Snapshot is an immutable, flat compilation of the scoring-relevant
// structure of a Tree at one Version, specialized for one background
// distribution. It exists because the §4.3 similarity scan is the hot
// loop of everything built on this package — clustering iterations,
// batch classification, the serving daemon — and the mutable Tree pays
// per scored symbol for work that is invariant while the tree is frozen:
//
//   - locating the deepest node matching the current context — up to
//     L child-run searches per symbol in Tree.Similarity — becomes one
//     step of a transition automaton built from suffix links at compile
//     time (the "auxiliary links" §4.3 credits with an O(l) scan): a
//     table load for nodes whose extension row is dense, a binary
//     search over a sorted CSR row with parent fallback for the
//     (typically long) sparse tail,
//   - the climb to the deepest significant ancestor disappears: the
//     compile lays out only the contexts the estimator predicts from,
//     so the deepest match is the prediction node, and
//   - the per-symbol probability adjustment (§5.2 PMin), the math.Log
//     call, and the background-log subtraction are all folded into a
//     precomputed ln P̂(s|ctx) − ln p(s) table — the scan performs zero
//     logarithms and acquires zero locks.
//
// Everything the scan reads is structure-of-arrays node storage, with no
// per-node Go objects and no maps. Arena writes those tables as one
// contiguous slab — bundle format v3 stores it verbatim — and a snapshot
// loaded from the slab (SnapshotFromArena) views it in place, so the
// registry can mmap a bundle and serve it without parsing (see arena.go).
//
// The score rows split in two. ln P̂(sym | ctx) depends only on the tree,
// ln p(sym) only on the background, so a compiled snapshot keeps its
// ln P̂ rows beside the folded ones, and Refold recompiles the same tree
// Version against a new background by folding those rows again, sharing
// the transition tables. Loaded and Detached snapshots keep no ln P̂ rows.
//
// Dense-vs-CSR is chosen per node at compile time: a node whose full
// extensions cover at least 1/denseOccupancy of the alphabet gets a
// fully resolved dense transition row (fallback already applied), every
// other node stores only its own sorted extensions and the scan climbs
// the BFS parent chain on a miss. The root is always dense, so every
// climb terminates in O(depth) with the usual amortization argument.
// This is what keeps large alphabets fast: the handful of shallow,
// high-occupancy nodes that dominate transition traffic stay O(1)
// without paying numNodes·n table bytes for the sparse tail.
//
// The compilation is exact, not approximate: Similarity returns results
// bit-identical to Tree.Similarity (same LogSim, Start, End, in every
// estimation mode). §3 predicts from the prediction node: the deepest
// node of the context's root path reached through significant nodes
// only. The compile therefore lays out the root and those nodes, the
// sparse tree of significant contexts, and gives each its own score
// row; the deepest match of a context among them is its prediction
// node. The effective significance threshold (including the adaptive
// variant) depends only on tree state, which is frozen at compile time.
// A node's count never exceeds its parent's (a context's occurrences
// are a subset of its suffix's), so significance is monotone along root
// paths and the compiled nodes are just the significant ones. Most of
// an uncapped tree is insignificant — in the batch workload's final
// trees about 1 node in 200 is significant — and no scan predicts from
// those nodes, so the compile skips them.
//
// Shrinkage-mode trees (Config.Shrinkage > 0) compile every node, each
// with a score row of its own: the shrunk estimate blends counts down
// the root path to the deepest matching node, significant or not, so it
// is a function of that node alone, which the compiler evaluates
// top-down with the tree scan's arithmetic.
//
// The transition automaton needs one more property: the node set must
// be slink-closed — every node's context minus its most recent symbol
// must itself be a node — or the deepest match after one more symbol
// depends on history the current state does not hold. Insert maintains
// that closure (every context's suffixes are contexts of earlier
// positions), but pruning can evict a node w while a node w·s survives
// on another branch, and a significant node's link target can be
// insignificant where pruning took counts from it. The compiler then
// closes the flattened tree, as Ron, Singer and Tishby's PST-to-automaton
// construction does: each missing link target becomes a virtual node,
// which has no tree slot and takes its parent's score row. The deepest
// virtual match of a context then scores with the row of its deepest
// real match — the node the tree scan predicts from — so every tree,
// pruned or not, compiles the one O(1)-per-symbol automaton.
//
// A Snapshot never observes later tree mutations: it copies everything
// it needs at compile time. Callers detect staleness with Valid, which
// compares the tree identity and Version stamp — the same invalidation
// rule the clustering engine's similarity cache uses — and score live
// trees through Score, which falls back to Tree.Similarity once the
// snapshot is stale. A snapshot reconstructed from a serialized arena
// (SnapshotFromArena) or detached from its tree (Detached) has no tree
// at all (Tree returns nil), so it never goes stale.
//
// Snapshots are safe for concurrent use by any number of goroutines.
type Snapshot struct {
	tree     *Tree
	version  uint64
	n        int // alphabet size
	maxDepth int // the tree's MaxDepth, recorded in the arena header

	// arena is the slab a loaded snapshot's slices view (zero-copy on
	// little-endian hosts); backing pins whatever owns the slab's bytes —
	// an mmap'd file region — for the snapshot's lifetime. A compiled
	// snapshot has neither: Arena writes its slab from the tables.
	arena   []byte
	backing any

	// Transition function over compiled node indices (root = 0): the
	// index of the deepest node matching the context after one more
	// symbol. nodeTrans[x] selects x's representation — bit 31 set
	// means denseTrans row (full function, fallback resolved), clear
	// means CSR row (own extensions only; a miss climbs parent).
	nodeTrans  []uint32
	denseTrans []int32
	csrStart   []uint32
	csrSym     []seq.Symbol
	csrDst     []int32
	parent     []int32

	// row[node] indexes the node's precomputed score row: its own for a
	// real node, its deepest real ancestor's for a virtual one;
	// logRatio[row*n + sym] is the fully adjusted ln P̂(sym | ctx) −
	// ln p(sym) (−Inf for impossible symbols).
	row      []int32
	logRatio []float64

	// lnP holds a compiled snapshot's rows before the fold: logRatio's
	// shape, with ln P̂(sym | ctx) (−Inf for impossible symbols) in place
	// of the ratio. Refold folds them against another background.
	lnP []float64

	background []float64 // the distribution the ratios were folded with
}

// denseOccupancy picks the dense threshold: a node's transition row is
// compiled dense when extensions·denseOccupancy ≥ alphabet size (the
// root is always dense so parent climbs terminate). 4 means ≥ 25%
// occupancy — below that a binary search over the CSR row is cheaper
// than the cache traffic of an n-wide row. Variable so tests can force
// the all-CSR path (0) or the all-dense path (a huge value) cheaply.
var denseOccupancy = 4

// denseAllLimit is the small-table escape: when numNodes·n fits this
// many entries (int32 each, so 4 MiB — comfortably cache-resident),
// every row is compiled dense and each transition is one load, exactly
// the old global dense table. The per-node occupancy rule only matters
// once the full table would blow the cache anyway.
var denseAllLimit = 1 << 20

// CompileSnapshot compiles the tree's current state against the given
// background distribution (the memoryless p(s) of the database, as for
// Similarity; its length must equal the alphabet size). The tree must
// not be mutated during compilation; afterwards the Snapshot is
// independent of further tree changes (and Valid reports them).
//
// The background slice must not be mutated after it is passed: the
// snapshot keeps it (see Background), and the tree's ln(background)
// memo is keyed by the slice's address, so rewriting it in place would
// compile — and score — against the old values. Pass a fresh slice for
// a new distribution.
func (t *Tree) CompileSnapshot(background []float64) *Snapshot {
	t.checkBackground(background)
	f, lnP := t.flatten()
	s, err := f.automaton(math.MaxInt32)
	if err != nil {
		panic(err) // the closed tree would overflow int32 node indices
	}
	s.tree, s.version, s.lnP = t, t.version, lnP
	s.fold(background)
	return s
}

// checkBackground panics unless background has one entry per symbol.
func (t *Tree) checkBackground(background []float64) {
	if len(background) != t.cfg.AlphabetSize {
		panic(fmt.Sprintf("pst: background distribution has %d entries, alphabet has %d", len(background), t.cfg.AlphabetSize))
	}
}

// Refold returns the snapshot of the same tree Version compiled against
// another background: bit for bit what CompileSnapshot(background)
// returns while s is Valid for its tree, at the cost of one pass over
// the score rows. The transition tables are s's own, shared, since they
// never change; only the folded rows are new, each kept ln P̂ entry minus
// ln p(sym) — the subtraction CompileSnapshot performs, on the same
// operands. Refold of a refolded snapshot refolds the same rows again.
//
// A stale snapshot has nothing left to reuse, so Refold compiles its
// tree in full. A snapshot without a tree (loaded or Detached) keeps no
// ln P̂ rows, and Refold panics. background is kept as CompileSnapshot
// keeps it, so it must not be mutated after it is passed.
func (s *Snapshot) Refold(background []float64) *Snapshot {
	if s.tree == nil {
		panic("pst: Refold of a loaded or detached snapshot, which keeps no ln P̂ rows")
	}
	if !s.Valid(s.tree) {
		return s.tree.CompileSnapshot(background)
	}
	s.tree.checkBackground(background)
	r := *s
	r.fold(background)
	return &r
}

// fold writes the score rows for background from the ln P̂ rows: entry
// sym becomes lnP − ln p(sym), the subtraction Tree.Similarity performs,
// and −Inf stays −Inf, as the scan scores an impossible symbol even
// where p(sym) is 0 (−Inf − ln 0 would be NaN).
func (s *Snapshot) fold(background []float64) {
	logBg := s.tree.logBackground(background)
	n, negInf := len(logBg), math.Inf(-1)
	ratio := make([]float64, len(s.lnP))
	for base := 0; base < len(ratio); base += n {
		dst := ratio[base : base+n]
		for sym, v := range s.lnP[base : base+n] {
			if v != negInf {
				v -= logBg[sym]
			}
			dst[sym] = v
		}
	}
	s.logRatio, s.background = ratio, background
}

// flatTree is a context tree flattened in breadth-first order: what the
// automaton builder compiles, each node with a score row of its own.
// CompileSnapshot flattens the nodes of a live tree it keeps;
// SnapshotFromArena reads one from the child sections and rows of a
// legacy descend arena.
type flatTree struct {
	n, maxDepth int

	// Node i ≥ 1 hangs below parent[i] < i along edge[i], the oldest
	// symbol of its context. The children of node i are the nodes
	// childStart[i]+1 … childStart[i+1], in ascending edge order.
	parent     []int32
	edge       []seq.Symbol
	childStart []int32
}

// layout lays out the root and every node reached from it through nodes
// whose count is at least minCount, in breadth-first order, each node's
// children in the ascending order of its run — a node's parent always
// precedes it (so every recurrence over parents reads data that is
// already final), sibling order is deterministic, and child lookup is a
// binary search over one contiguous span. minCount ≤ 0 lays out the
// whole tree. It returns the structure and each compiled index's tree
// slot.
func (t *Tree) layout(minCount int64) (*flatTree, []Slot) {
	capacity := 1
	if minCount <= 0 {
		capacity = t.numNodes
	}
	f := &flatTree{
		n:          t.cfg.AlphabetSize,
		maxDepth:   t.cfg.MaxDepth,
		parent:     make([]int32, 1, capacity),
		edge:       make([]seq.Symbol, 1, capacity),
		childStart: make([]int32, 0, capacity+1),
	}
	nodes := append(make([]Slot, 0, capacity), t.Root())
	for head := 0; head < len(nodes); head++ {
		f.childStart = append(f.childStart, int32(len(nodes)-1))
		syms, slots := t.kids(nodes[head])
		for j, sym := range syms {
			if t.count[slots[j]] < minCount {
				continue
			}
			f.parent = append(f.parent, int32(head))
			f.edge = append(f.edge, sym)
			nodes = append(nodes, Slot(slots[j]))
		}
	}
	f.childStart = append(f.childStart, int32(len(nodes)-1))
	return f, nodes
}

// flatten lays out the nodes a compile keeps and computes their ln P̂
// rows, one per node, before any background is folded in: the root and
// the significant nodes, or under shrinkage every node. The row entries
// replay the scan's arithmetic — the estimate, adjust, then Log — so the
// compiled values are bit-identical to what Tree.Similarity computes per
// symbol before it subtracts ln p(sym).
func (t *Tree) flatten() (*flatTree, []float64) {
	ln := func(p float64) float64 {
		if p <= 0 {
			return math.Inf(-1)
		}
		return math.Log(p)
	}
	if kappa := t.cfg.Shrinkage; kappa > 0 {
		// Every node scores with predictShrunk's blend down to it; BFS
		// order blends a parent's raw row before its children.
		f, nodes := t.layout(0)
		n := f.n
		lnP := make([]float64, len(nodes)*n)
		for sym := range n {
			lnP[sym] = t.prob(nodes[0], seq.Symbol(sym))
		}
		for i := 1; i < len(nodes); i++ {
			x, base, pbase := nodes[i], i*n, int(f.parent[i])*n
			for sym, next := range t.nextRow(x) {
				lnP[base+sym] = shrink(next, t.count[x], kappa, lnP[pbase+sym])
			}
		}
		for i, b := range lnP {
			lnP[i] = ln(t.adjust(b))
		}
		return f, lnP
	}
	// PredictionNode's walk: a node predicts when it and every node
	// above it but the root reach the significance threshold.
	f, nodes := t.layout(int64(t.EffectiveSignificance()))
	n := f.n
	// Most entries of a row have next count 0, so they share one
	// probability, adjust(0): take its logarithm once per compile.
	lnP := make([]float64, len(nodes)*n)
	zero := ln(t.adjust(0))
	for i := range lnP {
		lnP[i] = zero
	}
	for i, x := range nodes {
		dst := lnP[i*n:][:n]
		for sym, next := range t.nextRow(x) {
			if next != 0 {
				dst[sym] = ln(t.adjust(t.prob(x, seq.Symbol(sym))))
			}
		}
	}
	return f, lnP
}

// child returns the index of cur's child along edge symbol sym, or −1.
func (f *flatTree) child(cur int32, sym seq.Symbol) int32 {
	lo, hi := f.childStart[cur]+1, f.childStart[cur+1]+1
	end := hi
	for lo < hi {
		mid := int32(uint32(lo+hi) >> 1)
		if f.edge[mid] < sym {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < end && f.edge[lo] == sym {
		return lo
	}
	return -1
}

// automaton compiles the flat tree into a snapshot's transition tables:
// the suffix-link transition automaton over the tree closed under suffix
// links, with each node's score row index. The caller adds the score
// rows. A closure that would hold more than limit nodes fails instead.
func (f *flatTree) automaton(limit int) (*Snapshot, error) {
	n, numReal := f.n, len(f.parent)
	sl, err := f.closure(limit)
	if err != nil {
		return nil, err
	}
	parent, edge := f.parent, f.edge
	num := len(parent)
	// A real node scores with its own row. A virtual node takes its
	// parent's, so by induction it scores with the row of its deepest
	// real ancestor — the deepest real match of any context whose deepest
	// match it is.
	row := make([]int32, num)
	for v := range row {
		if v < numReal {
			row[v] = int32(v)
		} else {
			row[v] = row[parent[v]]
		}
	}

	// first[y] is y's most recent context symbol, the root edge of its
	// path: y extends sl[y] by first[y].
	first := make([]seq.Symbol, num)
	for y := 1; y < num; y++ {
		if parent[y] == 0 {
			first[y] = edge[y]
		} else {
			first[y] = first[parent[y]]
		}
	}

	// Full-extension lists, grouped by source: y extends sl[y] by
	// first[y] (the node whose context is sl[y]'s context with first[y]
	// appended as the new most recent symbol). Counting sort by source
	// keeps compilation linear; each source's extensions are then
	// symbol-sorted for the CSR binary search.
	extCount := make([]int32, num+1)
	for y := 1; y < num; y++ {
		extCount[sl[y]+1]++
	}
	extStart := make([]int32, num+1)
	for i := 0; i < num; i++ {
		extStart[i+1] = extStart[i] + extCount[i+1]
	}
	extSym := make([]seq.Symbol, num-1)
	extDst := make([]int32, num-1)
	fill := make([]int32, num)
	copy(fill, extStart[:num])
	for y := 1; y < num; y++ {
		src := sl[y]
		p := fill[src]
		fill[src]++
		extSym[p] = first[y]
		extDst[p] = int32(y)
	}
	for i := 0; i < num; i++ {
		lo, hi := int(extStart[i]), int(extStart[i+1])
		for j := lo + 1; j < hi; j++ {
			for k := j; k > lo && extSym[k] < extSym[k-1]; k-- {
				extSym[k], extSym[k-1] = extSym[k-1], extSym[k]
				extDst[k], extDst[k-1] = extDst[k-1], extDst[k]
			}
		}
	}

	// Per-node representation choice. The deepest match after consuming
	// sym is the full extension of the deepest ancestor-or-self that
	// has one — trans[x][sym] = ext(x, sym), else trans[parent(x)][sym]
	// — and each node stores that function either as a fully resolved
	// dense row or as its own extensions in CSR form with the fallback
	// left to the scan's parent climb.
	nodeTrans := make([]uint32, num)
	denseRows, csrRows, csrEdges := 0, 0, 0
	allDense := num <= denseAllLimit/n
	for i := 0; i < num; i++ {
		ext := int(extStart[i+1] - extStart[i])
		if i == 0 || allDense || ext*denseOccupancy >= n {
			nodeTrans[i] = denseFlag | uint32(denseRows)
			denseRows++
		} else {
			nodeTrans[i] = uint32(csrRows)
			csrRows++
			csrEdges += ext
		}
	}

	// Dense rows resolve the fallback at compile time: start from the
	// nearest dense ancestor's final row (the root's base row is all
	// zeroes — stay at the root), overlay the extension overrides of
	// each intervening CSR ancestor shallowest-first, then the node's
	// own. Parents precede children, so every ancestor row is final
	// before its descendants copy it.
	denseTrans := make([]int32, denseRows*n)
	var chain []int32
	for i := 0; i < num; i++ {
		tr := nodeTrans[i]
		if tr < denseFlag {
			continue
		}
		base := int(tr-denseFlag) * n
		if i != 0 {
			chain = chain[:0]
			a := parent[i]
			for nodeTrans[a] < denseFlag {
				chain = append(chain, a)
				a = parent[a]
			}
			src := int(nodeTrans[a]-denseFlag) * n
			copy(denseTrans[base:base+n], denseTrans[src:src+n])
			for k := len(chain) - 1; k >= 0; k-- {
				c := chain[k]
				for j := extStart[c]; j < extStart[c+1]; j++ {
					denseTrans[base+int(extSym[j])] = extDst[j]
				}
			}
		}
		for j := extStart[i]; j < extStart[i+1]; j++ {
			denseTrans[base+int(extSym[j])] = extDst[j]
		}
	}

	// CSR rows in node order (row ids were assigned in the same order,
	// so csrStart fills monotonically).
	csrStart := make([]uint32, csrRows+1)
	csrSym := make([]seq.Symbol, csrEdges)
	csrDst := make([]int32, csrEdges)
	pos := 0
	for i := 0; i < num; i++ {
		tr := nodeTrans[i]
		if tr >= denseFlag {
			continue
		}
		csrStart[tr] = uint32(pos)
		for j := extStart[i]; j < extStart[i+1]; j++ {
			csrSym[pos] = extSym[j]
			csrDst[pos] = extDst[j]
			pos++
		}
	}
	csrStart[csrRows] = uint32(pos)

	return &Snapshot{
		n:          n,
		maxDepth:   f.maxDepth,
		nodeTrans:  nodeTrans,
		denseTrans: denseTrans,
		csrStart:   csrStart,
		csrSym:     csrSym,
		csrDst:     csrDst,
		parent:     parent,
		row:        row,
	}, nil
}

// closureLimit bounds the closure of a tree read from outside the
// process — a loaded tree, a legacy descend arena — at
// min(maxDepth, 16)·num + 2^16 nodes. Every closure node is a context
// prefix of a real node, so a tree of depth D closes within D·num nodes:
// no tree of depth 16 or less can reach the bound, and a deeper one must
// first average 15 virtual nodes per real node, far more than the
// capped trees Insert grows (DESIGN.md §6). A crafted single root path,
// whose closure holds every substring of its context, fails after
// linear work instead of allocating quadratically many nodes.
func closureLimit(num, maxDepth int) int {
	return min(num*min(maxDepth, 16)+1<<16, math.MaxInt32)
}

// closure resolves every node's suffix link, computed from structure
// alone: sl[x] is the node for x's context minus its most recent symbol,
// by the recurrence sl[x] = child(sl[parent[x]], edge[x]). Every depth ≥
// 1 node y is the full extension (one more recent symbol) of exactly one
// node, sl[y], so the transition automaton is exact iff every link
// resolves. Insert keeps trees closed, but pruning can evict a link
// target: closure then appends it to f.parent and f.edge as a virtual
// node, after every node that exists so far. Its tree parent, the link
// of the parent of the node that needed it, precedes it, so parents
// still precede children; its own link is resolved, and closed, when the
// pass reaches it. A closure that would hold more than limit nodes fails.
func (f *flatTree) closure(limit int) ([]int32, error) {
	c := &closer{parent: f.parent, edge: f.edge, numReal: len(f.parent), limit: limit}
	c.sl = make([]int32, c.numReal)
	for i := 1; i < len(c.parent); i++ {
		if c.parent[i] == 0 {
			continue // sl = root
		}
		p, sym := c.sl[c.parent[i]], c.edge[i]
		target := int32(-1)
		if int(p) < c.numReal {
			target = f.child(p, sym)
		}
		if target < 0 {
			var err error
			if target, err = c.virtual(p, sym); err != nil {
				return nil, err
			}
		}
		c.sl[i] = target
	}
	f.parent, f.edge = c.parent, c.edge
	return c.sl, nil
}

// closer is closure's state: the node arrays and suffix links as they
// grow, and each node's list of virtual children, allocated at the first
// miss: kid[p] is the last one added (0 for none, as the root is
// nobody's child), and sib[v − numReal] the one added before v.
type closer struct {
	parent         []int32
	edge           []seq.Symbol
	sl, kid, sib   []int32
	numReal, limit int
}

// virtual returns p's virtual child along sym, appending it if it is
// missing. It is kept out of closure's loop: inline, its state slowed
// that loop by about a tenth on closed trees.
func (c *closer) virtual(p int32, sym seq.Symbol) (int32, error) {
	if c.kid != nil {
		for v := c.kid[p]; v != 0; v = c.sib[int(v)-c.numReal] {
			if c.edge[v] == sym {
				return v, nil
			}
		}
	}
	if len(c.parent) >= c.limit {
		return 0, fmt.Errorf("pst: closing %d nodes under suffix links takes more than %d", c.numReal, c.limit)
	}
	if c.kid == nil {
		c.kid = make([]int32, c.numReal)
	}
	v := int32(len(c.parent))
	c.parent = append(c.parent, p)
	c.edge = append(c.edge, sym)
	c.sl = append(c.sl, 0)
	c.kid = append(c.kid, 0)
	c.sib = append(c.sib, c.kid[p])
	c.kid[p] = v
	return v, nil
}

// Version returns the tree Version the snapshot was compiled at.
func (s *Snapshot) Version() uint64 { return s.version }

// Nodes returns the number of compiled nodes: the real ones, each with
// a score row, and the virtual ones that close them under suffix links.
// Nodes times the alphabet size measures what a compile of the tree
// writes.
func (s *Snapshot) Nodes() int { return len(s.nodeTrans) }

// Tree returns the tree the snapshot was compiled from, or nil for a
// snapshot reconstructed from a serialized arena or Detached.
func (s *Snapshot) Tree() *Tree { return s.tree }

// Detached returns a snapshot that shares s's compiled tables, which
// are immutable once compiled, but not its tree: like a snapshot loaded
// from a bundle, it has no Tree and never goes stale. Its holder keeps
// no reference to a tree that s's compiler may go on mutating, nor the
// ln P̂ rows that only Refold reads.
func (s *Snapshot) Detached() *Snapshot {
	d := *s
	d.tree, d.version, d.lnP = nil, 0, nil
	return &d
}

// Background returns the background distribution the snapshot's log
// ratios were folded with. Callers must not mutate it.
func (s *Snapshot) Background() []float64 { return s.background }

// Valid reports whether the snapshot still reflects t exactly: it was
// compiled from this very tree and the tree has not mutated since. This
// is the same version-stamp rule that makes the engine's similarity
// cache exact (see Tree.Version).
//
//cluseq:hotpath
func (s *Snapshot) Valid(t *Tree) bool {
	return s != nil && s.tree == t && s.version == t.Version()
}

// Score is the one rule for scoring a live tree: SIM_S(symbols) against
// t through the snapshot while it is Valid for t, else through
// t.Similarity — when s is nil, was compiled from another tree, or went
// stale because t mutated since. Both paths are bit-identical, so
// callers decide only when to compile (serially, before a parallel
// fan-out), never how to score. background must be the distribution s
// was compiled with.
//
//cluseq:hotpath
func (s *Snapshot) Score(t *Tree, symbols []seq.Symbol, background []float64) Similarity {
	if s.Valid(t) {
		return s.Similarity(symbols)
	}
	return t.Similarity(symbols, background)
}

// stepCSR advances the transition function from a CSR node: binary
// search the node's own sorted extensions, and on a miss climb the BFS
// parent chain — the next shorter context suffix — until a CSR row
// hits or a dense ancestor resolves the step outright. The root row is
// always dense, so the climb terminates.
//
//cluseq:hotpath
func (s *Snapshot) stepCSR(tr uint32, cur int32, sym seq.Symbol) int32 {
	for {
		lo, hi := s.csrStart[tr], s.csrStart[tr+1]
		for lo < hi {
			mid := (lo + hi) / 2
			if s.csrSym[mid] < sym {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		if lo < s.csrStart[tr+1] && s.csrSym[lo] == sym {
			return s.csrDst[lo]
		}
		cur = s.parent[cur]
		tr = s.nodeTrans[cur]
		if tr >= denseFlag {
			return s.denseTrans[int(tr-denseFlag)*s.n+int(sym)]
		}
	}
}

// Similarity computes SIM_S(σ) exactly as Tree.Similarity does — same
// dynamic program, bit-identical result — against the background
// distribution the snapshot was compiled with.
// It performs no locking, no logarithms, and no allocation; each scored
// symbol costs one table load for the score and one transition step.
//
//cluseq:hotpath
func (s *Snapshot) Similarity(symbols []seq.Symbol) Similarity {
	if len(symbols) == 0 {
		return Similarity{LogSim: math.Inf(-1)}
	}
	best := Similarity{LogSim: math.Inf(-1)}
	logY := math.Inf(-1)
	yStart := 0

	n := s.n
	row, ratio := s.row, s.logRatio
	nodeTrans, dense := s.nodeTrans, s.denseTrans
	var cur int32 // deepest node matching the current context suffix
	for i, sym := range symbols {
		logX := ratio[int(row[cur])*n+int(sym)]
		if logY+logX >= logX { // extending beats restarting (logY >= 0)
			logY += logX
		} else {
			logY = logX
			yStart = i
		}
		if logY > best.LogSim {
			best.LogSim = logY
			best.Start = yStart
			best.End = i + 1
		}
		if tr := nodeTrans[cur]; tr >= denseFlag {
			cur = dense[int(tr-denseFlag)*n+int(sym)]
		} else {
			cur = s.stepCSR(tr, cur, sym)
		}
	}
	return best
}

// SimilaritySeq is Similarity applied to a seq.Sequence.
//
//cluseq:hotpath
func (s *Snapshot) SimilaritySeq(sq *seq.Sequence) Similarity {
	return s.Similarity(sq.Symbols)
}
