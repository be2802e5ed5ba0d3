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
//   - the climb to the deepest significant ancestor becomes a
//     precomputed per-node row index, and
//   - the per-symbol probability adjustment (§5.2 PMin), the math.Log
//     call, and the background-log subtraction are all folded into a
//     precomputed ln P̂(s|ctx) − ln p(s) table — the scan performs zero
//     logarithms and acquires zero locks.
//
// Everything the scan reads lives in one contiguous arena (see
// arena.go): structure-of-arrays node storage with no per-node Go
// objects and no maps, so a snapshot is a single allocation whose
// serialized form is its in-memory form — bundle format v3 stores the
// arena verbatim and the registry can mmap it back without parsing.
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
// estimation mode). Two facts make the node-level precomputation sound:
//
//   - a node's occurrence count never exceeds its parent's (a context's
//     occurrences are a subset of its suffix's), so significance is
//     monotone along every root path and "deepest significant
//     ancestor-or-self of the deepest matching node" is exactly the
//     prediction node §3's root-down walk finds;
//   - the effective significance threshold (including the adaptive
//     variant) depends only on tree state, which is frozen at compile
//     time.
//
// The O(1)-per-symbol transition automaton has one additional soundness
// requirement: the tree must be slink-closed — every node's context
// minus its most recent symbol must itself be a node. Insert maintains
// that closure (every context's suffixes are contexts of earlier
// positions), but pruning can evict a node w while a node w·s survives
// on another branch; the deepest-match state is then not a function of
// (previous state, symbol) and no per-node transition table is exact.
// For such trees the compiler falls back to a bounded-descent mode that
// replays §3's root-down prediction walk over the compiled child arrays:
// O(L) per symbol like Tree.Similarity, but still allocation-, lock-
// and logarithm-free.
//
// Shrinkage-mode trees (Config.Shrinkage > 0) blend probabilities along
// the whole context path, which does not flatten into a per-node table;
// for those the Snapshot transparently delegates to Tree.Similarity, so
// callers can compile unconditionally and keep one code path.
//
// A Snapshot never observes later tree mutations: it copies everything
// it needs at compile time (the delegating shrinkage path relies on the
// caller's freeze discipline, exactly as Tree.Similarity's concurrent
// readers do). Callers detect staleness with Valid, which compares the
// tree identity and Version stamp — the same invalidation rule the
// clustering engine's similarity cache uses — and score live trees
// through Score, which falls back to Tree.Similarity once the snapshot
// is stale. A snapshot reconstructed from a serialized arena
// (SnapshotFromArena) has no tree at all (Tree returns nil), so it
// never goes stale.
//
// Snapshots are safe for concurrent use by any number of goroutines.
type Snapshot struct {
	tree    *Tree
	version uint64
	n       int // alphabet size

	// delegate: shrinkage-mode estimation cannot be compiled per node;
	// Similarity falls through to tree.Similarity (bit-identical by
	// construction: it is the same scan).
	delegate bool

	// descend: the tree is not slink-closed (pruning evicted interior
	// suffix contexts), so no exact transition automaton exists; scan by
	// bounded root-down descent over the compiled child arrays instead.
	descend  bool
	maxDepth int

	// arena is the one slab every slice below aliases (zero-copy on
	// little-endian hosts); backing pins whatever owns the slab's bytes
	// — an mmap'd file region — for the snapshot's lifetime.
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

	// Descent mode: the tree's own child edges (one more context symbol
	// back in time), sorted per node for binary search.
	childStart []int32
	childSym   []seq.Symbol
	childDst   []int32

	// row[node] indexes the precomputed score row of the node's deepest
	// significant ancestor-or-self; logRatio[row*n + sym] is the fully
	// adjusted ln P̂(sym | ctx) − ln p(sym) (−Inf for impossible symbols).
	row      []int32
	logRatio []float64

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
	n := t.cfg.AlphabetSize
	if len(background) != n {
		panic(fmt.Sprintf("pst: background distribution has %d entries, alphabet has %d", len(background), n))
	}
	s := &Snapshot{tree: t, version: t.version}
	if t.cfg.Shrinkage > 0 {
		h := arenaHeader{flags: arenaFlagDelegate, n: uint32(n)}
		arena, hh := buildArena(h, func(offs [numArenaSections]int64, arena []byte) {
			putF64s(arena[offs[secBackground]:], background)
		})
		s.attach(arena, &hh)
		s.background = background
		return s
	}

	// Flatten the tree in breadth-first order, each node's children in
	// the ascending order of its run: a node's parent always precedes it
	// (so the recurrences below read parent data that is already final),
	// sibling order is deterministic, and child lookup becomes a binary
	// search over one contiguous span.
	num := t.numNodes
	nodes := make([]Slot, 0, num) // compiled index → tree slot
	parent := make([]int32, num)
	edge := make([]seq.Symbol, num)
	first := make([]seq.Symbol, num) // most recent context symbol (root edge of the path)
	childStart := make([]int32, num+1)
	childSym := make([]seq.Symbol, 0, num-1)
	childDst := make([]int32, 0, num-1)
	nodes = append(nodes, t.Root())
	for head := 0; head < len(nodes); head++ {
		childStart[head] = int32(len(childSym))
		syms, slots := t.kids(nodes[head])
		for j, sym := range syms {
			ci := int32(len(nodes))
			nodes = append(nodes, Slot(slots[j]))
			parent[ci] = int32(head)
			edge[ci] = sym
			if head == 0 {
				first[ci] = sym
			} else {
				first[ci] = first[head]
			}
			childSym = append(childSym, sym)
			childDst = append(childDst, ci)
		}
	}
	childStart[num] = int32(len(childSym))
	childAt := func(cur int32, sym seq.Symbol) int32 {
		lo, hi := childStart[cur], childStart[cur+1]
		for lo < hi {
			mid := (lo + hi) / 2
			if childSym[mid] < sym {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		if lo < childStart[cur+1] && childSym[lo] == sym {
			return childDst[lo]
		}
		return -1
	}

	// Score rows: one per prediction-capable node (root + significant
	// nodes); every other node inherits the row of its deepest
	// significant ancestor — exact because significance is monotone
	// along root paths. The row entries replay the scan's arithmetic —
	// adjust(prob) then Log minus the background log — so the compiled
	// values are bit-identical to what Tree.Similarity computes per
	// symbol.
	logBg := t.logBackground(background)
	row := make([]int32, num)
	rows := 0
	for i, x := range nodes {
		if t.Significant(x) {
			row[i] = int32(rows)
			rows++
		} else {
			row[i] = row[parent[i]]
		}
	}
	logRatio := make([]float64, rows*n)
	for i, x := range nodes {
		if !t.Significant(x) {
			continue
		}
		base := int(row[i]) * n
		for sym := 0; sym < n; sym++ {
			p := t.adjust(t.prob(x, seq.Symbol(sym)))
			if p <= 0 {
				logRatio[base+sym] = math.Inf(-1)
			} else {
				logRatio[base+sym] = math.Log(p) - logBg[sym]
			}
		}
	}

	// Suffix links, computed from structure alone: sl[x] is the node
	// for x's context minus its most recent symbol, by the recurrence
	// sl[x] = child(sl[parent[x]], edge[x]).
	//
	// The links double as the slink-closure check. Every depth ≥ 1 node
	// y is the full extension (one more recent symbol) of exactly one
	// candidate node — sl[y] — so the transition automaton below is
	// exact iff every sl resolves. A miss means pruning evicted an
	// interior suffix context: the deepest match then depends on history
	// beyond the current automaton state and no per-node transition
	// table is exact, so the snapshot keeps the child arrays and scans
	// by bounded descent instead.
	sl := make([]int32, num)
	closed := true
	for i := 1; i < num && closed; i++ {
		if t.depth[nodes[i]] == 1 {
			continue // sl = root
		}
		target := childAt(sl[parent[i]], edge[i])
		if target < 0 {
			closed = false
			break
		}
		sl[i] = target
	}
	if !closed {
		h := arenaHeader{
			flags:      arenaFlagDescend,
			n:          uint32(n),
			numNodes:   uint32(num),
			rows:       uint32(rows),
			childEdges: uint32(num - 1),
			maxDepth:   uint32(t.cfg.MaxDepth),
		}
		arena, hh := buildArena(h, func(offs [numArenaSections]int64, arena []byte) {
			putF64s(arena[offs[secLogRatio]:], logRatio)
			putF64s(arena[offs[secBackground]:], background)
			putU32s(arena[offs[secRow]:], row)
			putU32s(arena[offs[secChildStart]:], childStart)
			putU32s(arena[offs[secChildDst]:], childDst)
			putU16s(arena[offs[secChildSym]:], childSym)
		})
		s.attach(arena, &hh)
		s.background = background
		return s
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
	// own. BFS order guarantees every ancestor row is final before its
	// descendants copy it.
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

	// CSR rows in BFS order (row ids were assigned in the same order,
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

	h := arenaHeader{
		n:         uint32(n),
		numNodes:  uint32(num),
		rows:      uint32(rows),
		denseRows: uint32(denseRows),
		csrRows:   uint32(csrRows),
		csrEdges:  uint32(csrEdges),
		maxDepth:  uint32(t.cfg.MaxDepth),
	}
	arena, hh := buildArena(h, func(offs [numArenaSections]int64, arena []byte) {
		putF64s(arena[offs[secLogRatio]:], logRatio)
		putF64s(arena[offs[secBackground]:], background)
		putU32s(arena[offs[secNodeTrans]:], nodeTrans)
		putU32s(arena[offs[secParent]:], parent)
		putU32s(arena[offs[secRow]:], row)
		putU32s(arena[offs[secDenseTrans]:], denseTrans)
		putU32s(arena[offs[secCsrStart]:], csrStart)
		putU32s(arena[offs[secCsrDst]:], csrDst)
		putU16s(arena[offs[secCsrSym]:], csrSym)
	})
	s.attach(arena, &hh)
	s.background = background
	return s
}

// Version returns the tree Version the snapshot was compiled at.
func (s *Snapshot) Version() uint64 { return s.version }

// Tree returns the tree the snapshot was compiled from, or nil for a
// snapshot reconstructed from a serialized arena.
func (s *Snapshot) Tree() *Tree { return s.tree }

// Background returns the background distribution the snapshot's log
// ratios were folded with. Callers must not mutate it.
func (s *Snapshot) Background() []float64 { return s.background }

// Delegates reports whether the snapshot delegates scanning to the
// tree (shrinkage estimation): its arena carries no tables, so
// serializing such a cluster requires the tree itself.
func (s *Snapshot) Delegates() bool { return s.delegate }

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

// child returns the compiled index of cur's child along edge symbol sym,
// or −1 — the descent-mode equivalent of the tree's lookupChild.
//
//cluseq:hotpath
func (s *Snapshot) child(cur int32, sym seq.Symbol) int32 {
	lo, hi := s.childStart[cur], s.childStart[cur+1]
	for lo < hi {
		mid := (lo + hi) / 2
		if s.childSym[mid] < sym {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < s.childStart[cur+1] && s.childSym[lo] == sym {
		return s.childDst[lo]
	}
	return -1
}

// similarityDescend is the exact compiled replay of Tree.Similarity for
// trees without slink closure: a bounded root-down descent locates each
// position's deepest matching node, and the precomputed rows supply the
// adjusted log ratio. O(l·L) like the tree scan it mirrors, but free of
// locks and logarithms.
//
//cluseq:hotpath
func (s *Snapshot) similarityDescend(symbols []seq.Symbol) Similarity {
	best := Similarity{LogSim: math.Inf(-1)}
	logY := math.Inf(-1)
	yStart := 0
	n := s.n
	for i, sym := range symbols {
		var cur int32
		for d := 1; d <= s.maxDepth && i-d >= 0; d++ {
			c := s.child(cur, symbols[i-d])
			if c < 0 {
				break
			}
			cur = c
		}
		logX := s.logRatio[int(s.row[cur])*n+int(sym)]
		if logY+logX >= logX {
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
	}
	return best
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
	if s.delegate {
		return s.tree.Similarity(symbols, s.background)
	}
	if len(symbols) == 0 {
		return Similarity{LogSim: math.Inf(-1)}
	}
	if s.descend {
		return s.similarityDescend(symbols)
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
