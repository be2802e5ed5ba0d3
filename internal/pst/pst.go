// Package pst implements the probabilistic suffix tree (PST) of paper §3:
// a suffix tree built over reversed sequences in which every node carries
// an occurrence count and a next-symbol conditional probability vector.
//
// A node at depth d, reached from the root along symbols c1, c2, …, cd,
// represents the context (preceding segment) cd … c2 c1 in original
// sequence order; the path spells the context reversed, so locating the
// longest significant suffix of a context is a single root-down walk
// (paper §3). The node stores
//
//   - Count: the number of occurrences of its context in the inserted data,
//   - next[s]: the number of occurrences of the context followed by s,
//
// giving the empirical conditional probability P(s | context) =
// next[s]/Count exactly as §4.4 prescribes (the ratio of the occurrence
// frequencies of context·s and context).
//
// The tree enforces a memory budget with the three pruning strategies of
// §5.1 and supports the smoothed ("adjusted") probabilities of §5.2.
package pst

import (
	"fmt"
	"math"
	"strings"
	"sync/atomic"

	"cluseq/internal/seq"
)

// DefaultMaxDepth bounds context length (the short-memory parameter L)
// when a Config leaves MaxDepth zero.
const DefaultMaxDepth = 10

// DefaultSignificance is the paper's rule-of-thumb significance threshold
// c: a context must occur at least this often for its probability vector
// to be trusted (§2).
const DefaultSignificance = 30

// PruneStrategy selects which nodes are evicted first when the tree
// exceeds its memory budget (§5.1).
type PruneStrategy int

const (
	// PruneAuto applies strategy 1 (smallest count) with strategy 2
	// (longest label) as tie-break while insignificant nodes remain, then
	// switches to strategy 3 (most expected probability vector), matching
	// the order the paper presents them in.
	PruneAuto PruneStrategy = iota
	// PruneMinCount evicts the node with the smallest count first.
	PruneMinCount
	// PruneLongestLabel evicts the node with the longest label first.
	PruneLongestLabel
	// PruneExpectedVector evicts the node whose probability vector is
	// closest (in variational distance) to its parent's, so the parent
	// substitutes for it with the least estimation error.
	PruneExpectedVector
)

// String names the strategy the way the observability layer labels
// prune metrics (DESIGN.md §10).
func (p PruneStrategy) String() string {
	switch p {
	case PruneMinCount:
		return "min_count"
	case PruneLongestLabel:
		return "longest_label"
	case PruneExpectedVector:
		return "expected_vector"
	default:
		return "auto"
	}
}

// Config parameterizes a Tree.
type Config struct {
	// AlphabetSize is the number of distinct symbols n. Required.
	AlphabetSize int
	// MaxDepth is the short-memory bound L on context length.
	// Defaults to DefaultMaxDepth.
	MaxDepth int
	// Significance is the significance threshold c. Defaults to
	// DefaultSignificance.
	Significance int
	// MaxBytes caps the tree's (estimated) memory footprint; zero means
	// unlimited. When the cap is exceeded after an insertion the tree
	// prunes itself back to 90% of the cap.
	MaxBytes int
	// Prune selects the eviction strategy used when MaxBytes is exceeded.
	Prune PruneStrategy
	// PMin, when positive, enables the adjusted probability estimation of
	// §5.2: every returned probability becomes
	// (1 − n·PMin)·P + PMin, so no symbol is ever impossible.
	// Must satisfy PMin < 1/n.
	PMin float64
	// AdaptiveSignificance scales the effective significance threshold
	// with the amount of data inserted: max(1, min(Significance,
	// totalSymbols/(8·n))). A tree holding a single seed sequence then
	// trusts (memorizes) every context it has — which is what lets a
	// freshly seeded cluster attract sequences sharing local segments
	// with its seed — while a grown tree converges to the configured c
	// and its statistical guarantees. The paper's fixed threshold is the
	// behaviour with this flag off.
	AdaptiveSignificance bool
	// Shrinkage, when positive, replaces the longest-significant-suffix
	// cutoff in probability estimation with Dirichlet-style shrinkage
	// toward the parent context: walking the context path from the root,
	// B_d(s) = (nextCount_d(s) + κ·B_{d−1}(s)) / (count_d + κ).
	// A context observed once nudges the estimate slightly toward its
	// continuation (so a freshly seeded cluster can recognize sequences
	// sharing local segments with its seed), while a context observed
	// hundreds of times dominates its parent (the statistical regime the
	// significance threshold c was designed to protect). κ ≈ 4–16 works
	// well; zero selects the paper's hard-cutoff estimation.
	Shrinkage float64
}

func (c Config) withDefaults() (Config, error) {
	if c.AlphabetSize <= 0 {
		return c, fmt.Errorf("pst: AlphabetSize must be positive, got %d", c.AlphabetSize)
	}
	if c.MaxDepth == 0 {
		c.MaxDepth = DefaultMaxDepth
	}
	if c.MaxDepth < 1 {
		return c, fmt.Errorf("pst: MaxDepth must be at least 1, got %d", c.MaxDepth)
	}
	if c.Significance == 0 {
		c.Significance = DefaultSignificance
	}
	if c.Significance < 1 {
		return c, fmt.Errorf("pst: Significance must be at least 1, got %d", c.Significance)
	}
	if c.PMin < 0 || c.PMin*float64(c.AlphabetSize) >= 1 {
		return c, fmt.Errorf("pst: PMin must lie in [0, 1/alphabetSize), got %g", c.PMin)
	}
	return c, nil
}

// Tree is a probabilistic suffix tree.
//
// # Concurrency
//
// A Tree is not safe for concurrent mutation. The read-only methods —
// Similarity, Predict, PredictionNode, Lookup, Walk, Stats, Version,
// and friends — may be called from any number of goroutines
// simultaneously, provided no mutating method (Insert, InsertCounts,
// Merge, Prune) runs concurrently with them. The clustering engine
// relies on exactly this: workers score sequences against frozen cluster
// trees, and in the apply phase each tree is mutated by one task at a
// time, which also owns every read of that tree while it runs. (The
// background-log memoization inside the similarity scans is an atomic
// immutable publish — lock-free for readers — and does not break the
// contract.)
//
// Version exposes a monotonic mutation counter so callers can detect,
// cheaply and exactly, whether a tree changed between two observations —
// the key the engine's similarity cache is stamped with.
type Tree struct {
	cfg Config

	slabs        // node storage, root at slot 0 (see slab.go)
	numNodes int // live nodes, root included

	// version counts mutations; see Version. It starts at 1 so that a
	// zero-valued cache stamp can never match a live tree.
	version uint64

	nodeBytes int // estimated bytes per node, for the memory budget
	maxNodes  int // 0 = unlimited

	insertions  int64 // total symbols inserted, for diagnostics
	pruned      int64 // nodes evicted so far
	pruneEvents int64 // pruneTo passes run so far (§5.1 cap firings)

	// Cached ln(background) for the similarity scans, keyed by the
	// background slice identity and published atomically so concurrent
	// scoring workers never serialize on it (see logBackground).
	logBg atomic.Pointer[logBgMemo]
}

// New returns an empty tree for the given configuration.
func New(cfg Config) (*Tree, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	t := &Tree{
		cfg:      cfg,
		slabs:    rootSlabs(cfg.AlphabetSize),
		numNodes: 1,
		version:  1,
	}
	// Estimated footprint of one node, fixed when nodes were heap objects
	// with child maps: an ~88-byte header, the next-count vector and ~48
	// bytes of amortized map space. The estimate fixes how many nodes a
	// MaxBytes cap admits, so it is part of every capped tree's shape and
	// stays put although the slabs hold a node in about 8n+40 bytes.
	t.nodeBytes = 88 + 8*cfg.AlphabetSize + 48
	if cfg.MaxBytes > 0 {
		t.maxNodes = cfg.MaxBytes / t.nodeBytes
		if t.maxNodes < 4 {
			return nil, fmt.Errorf("pst: MaxBytes=%d holds fewer than 4 nodes (node ≈ %d bytes)", cfg.MaxBytes, t.nodeBytes)
		}
	}
	return t, nil
}

// MustNew is New that panics on error, for tests and fixed configurations.
func MustNew(cfg Config) *Tree {
	t, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return t
}

// Config returns the tree's effective configuration (defaults applied).
func (t *Tree) Config() Config { return t.cfg }

// Root returns the root's slot, always 0. The root's Count is the total
// number of symbols inserted (the "overall size of the sequence cluster"
// of §3).
//
//cluseq:hotpath
func (t *Tree) Root() Slot { return 0 }

// Count returns the number of occurrences of node x's context.
func (t *Tree) Count(x Slot) int64 { return t.count[x] }

// NextCount returns the occurrence count of node x's context followed by
// s.
func (t *Tree) NextCount(x Slot, s seq.Symbol) int64 { return t.nextRow(x)[s] }

// Depth returns node x's context length.
func (t *Tree) Depth(x Slot) int { return int(t.depth[x]) }

// Label reconstructs node x's context in original (unreversed) symbol
// order. The root's label is empty.
func (t *Tree) Label(x Slot) []seq.Symbol {
	out := make([]seq.Symbol, t.depth[x])
	for i := 0; x != 0; x, i = Slot(t.parent[x]), i+1 {
		out[i] = t.edge[x]
	}
	return out
}

// NumNodes returns the current number of nodes including the root.
func (t *Tree) NumNodes() int { return t.numNodes }

// EstimatedBytes returns the tree's estimated memory footprint.
func (t *Tree) EstimatedBytes() int { return t.numNodes * t.nodeBytes }

// PrunedNodes returns how many nodes have been evicted by the memory cap.
func (t *Tree) PrunedNodes() int64 { return t.pruned }

// PruneEvents returns how many pruning passes have run — each event is
// one §5.1 memory-cap firing (or explicit Prune call) that evicted
// nodes under the configured strategy. The observability layer reports
// it per strategy (DESIGN.md §10).
func (t *Tree) PruneEvents() int64 { return t.pruneEvents }

// Version returns the tree's mutation counter. It starts at 1 for a
// fresh tree and strictly increases on every mutating operation
// (Insert, InsertCounts, Merge, and pruning, whether triggered by the
// memory cap or by Prune). Two equal Version readings bracket a span in
// which the tree's statistics did not change, so any value derived from
// the tree in between — a Similarity, a Predict result — is still
// exact. The clustering engine keys its (cluster, sequence) similarity
// cache on this counter.
//
//cluseq:hotpath
func (t *Tree) Version() uint64 { return t.version }

// TotalSymbols returns the total number of symbols inserted.
func (t *Tree) TotalSymbols() int64 { return t.insertions }

// lookupChild returns x's child along edge symbol s, or NoSlot. It is
// read-only and therefore safe on the frozen trees of the parallel
// scoring phase; every read-side walk (estimation, lookup) goes through
// it.
//
//cluseq:hotpath
func (t *Tree) lookupChild(x Slot, s seq.Symbol) Slot {
	r := t.runs[x]
	if i, ok := searchRun(t.kidSym[r.off:r.off+r.len], s); ok {
		return Slot(t.kidSlot[int(r.off)+i])
	}
	return NoSlot
}

// Insert adds one segment's statistics to the tree. This is the operation
// behind both initial construction from a seed sequence and the §4.4
// incremental update with a joining sequence's best-scoring segment:
// conceptually it inserts every suffix of the reversed segment, realized
// here as one pass that, for every position, walks the (reversed) context
// of up to MaxDepth symbols and updates each visited node's occurrence
// count and next-symbol counter.
func (t *Tree) Insert(segment []seq.Symbol) {
	l := len(segment)
	if l == 0 {
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
	}
}

// EffectiveSignificance returns the significance threshold currently in
// force: the configured c, or its data-scaled reduction when
// AdaptiveSignificance is set.
//
//cluseq:hotpath
func (t *Tree) EffectiveSignificance() int {
	if !t.cfg.AdaptiveSignificance {
		return t.cfg.Significance
	}
	s := int(t.insertions / int64(8*t.cfg.AlphabetSize))
	if s < 1 {
		return 1
	}
	if s > t.cfg.Significance {
		return t.cfg.Significance
	}
	return s
}

// Significant reports whether node x meets the significance threshold.
// The root is significant by definition once anything has been inserted.
//
//cluseq:hotpath
func (t *Tree) Significant(x Slot) bool {
	if x == t.Root() {
		return true
	}
	return t.count[x] >= int64(t.EffectiveSignificance())
}

// PredictionNode locates the node whose label is the longest significant
// suffix of the given context (paper §3): it walks from the root along the
// reversed context and stops where a further advance would reach a missing
// or insignificant node. It never returns NoSlot; with an empty tree it
// returns the root.
//
//cluseq:hotpath
func (t *Tree) PredictionNode(context []seq.Symbol) Slot {
	x := t.Root()
	L := t.cfg.MaxDepth
	sig := int64(t.EffectiveSignificance())
	for d := 1; d <= len(context) && d <= L; d++ {
		c := t.lookupChild(x, context[len(context)-d])
		if c == NoSlot || t.count[c] < sig {
			break
		}
		x = c
	}
	return x
}

// prob returns the raw empirical probability stored at node x for symbol s.
//
//cluseq:hotpath
func (t *Tree) prob(x Slot, s seq.Symbol) float64 {
	if t.count[x] == 0 {
		return 0
	}
	return float64(t.nextRow(x)[s]) / float64(t.count[x])
}

// Predict estimates P(s | context), applying the §5.2 adjustment when
// PMin is configured. With Shrinkage zero it reads the prediction node of
// the longest significant suffix (the paper's estimator); with Shrinkage
// positive it blends estimates along the whole context path.
func (t *Tree) Predict(context []seq.Symbol, s seq.Symbol) float64 {
	return t.adjust(t.estimate(context, s))
}

// estimate returns the raw (pre-adjustment) probability estimate for
// P(s | context) under the configured estimation mode.
//
//cluseq:hotpath
func (t *Tree) estimate(context []seq.Symbol, s seq.Symbol) float64 {
	if t.cfg.Shrinkage > 0 {
		return t.predictShrunk(context, s)
	}
	return t.prob(t.PredictionNode(context), s)
}

// predictShrunk walks the reversed context from the root, blending each
// node's raw estimate with its parent's blended value using κ pseudo-
// observations of the parent distribution. The blend is linear in the
// probability vector, so tracking the single entry for s suffices.
//
//cluseq:hotpath
func (t *Tree) predictShrunk(context []seq.Symbol, s seq.Symbol) float64 {
	x := t.Root()
	b := t.prob(x, s)
	kappa := t.cfg.Shrinkage
	L := t.cfg.MaxDepth
	for d := 1; d <= len(context) && d <= L; d++ {
		c := t.lookupChild(x, context[len(context)-d])
		if c == NoSlot {
			break
		}
		b = (float64(t.nextRow(c)[s]) + kappa*b) / (float64(t.count[c]) + kappa)
		x = c
	}
	return b
}

// adjust applies the §5.2 smoothing: P̂ = (1 − n·p_min)·P + p_min.
//
//cluseq:hotpath
func (t *Tree) adjust(p float64) float64 {
	if t.cfg.PMin <= 0 {
		return p
	}
	return (1-float64(t.cfg.AlphabetSize)*t.cfg.PMin)*p + t.cfg.PMin
}

// Lookup returns the node labeled exactly with the given context, or
// NoSlot. Unlike PredictionNode it does not stop at insignificant nodes;
// it is the exact-retrieval primitive used by tests and diagnostics.
func (t *Tree) Lookup(context []seq.Symbol) Slot {
	x := t.Root()
	for d := 1; d <= len(context) && x != NoSlot; d++ {
		x = t.lookupChild(x, context[len(context)-d])
	}
	return x
}

// Walk visits every node in depth-first pre-order, siblings in ascending
// edge-symbol order, so the traversal is deterministic for a given tree
// state. The visit function returns false to stop early; it must not
// mutate the tree.
//
// Save writes nodes in this order, so two trees with equal contents
// serialize to equal bytes.
func (t *Tree) Walk(visit func(Slot) bool) {
	stack := []Slot{t.Root()}
	for len(stack) > 0 {
		x := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if !visit(x) {
			return
		}
		// Push descending so the stack pops children in ascending order.
		_, slots := t.kids(x)
		for j := len(slots) - 1; j >= 0; j-- {
			stack = append(stack, Slot(slots[j]))
		}
	}
}

// Stats summarizes the tree for diagnostics and experiment reports.
type Stats struct {
	Nodes            int
	SignificantNodes int
	MaxDepth         int
	TotalSymbols     int64
	PrunedNodes      int64
	EstimatedBytes   int
}

// Stats computes a snapshot of tree statistics in one pass over the live
// slots.
func (t *Tree) Stats() Stats {
	s := Stats{
		Nodes:          t.numNodes,
		TotalSymbols:   t.insertions,
		PrunedNodes:    t.pruned,
		EstimatedBytes: t.EstimatedBytes(),
	}
	sig := int64(t.EffectiveSignificance())
	for x, d := range t.depth {
		if d == freeDepth {
			continue
		}
		if x == 0 || t.count[x] >= sig {
			s.SignificantNodes++
		}
		s.MaxDepth = max(s.MaxDepth, int(d))
	}
	return s
}

// Dump renders the tree as indented text for debugging, decoding symbols
// through the given alphabet, in Walk's order.
func (t *Tree) Dump(a *seq.Alphabet) string {
	var b strings.Builder
	t.Walk(func(x Slot) bool {
		label := "ε"
		if x != t.Root() {
			label = a.Decode(t.Label(x))
		}
		fmt.Fprintf(&b, "%s%s count=%d next=%v\n", strings.Repeat("  ", t.Depth(x)), label, t.count[x], t.nextRow(x))
		return true
	})
	return b.String()
}

// variationalDistance is Σ|P1(s) − P2(s)| over the alphabet between node
// x and its parent, the distance the §5.1 "expected probability vector"
// strategy compares with.
func (t *Tree) variationalDistance(x Slot) float64 {
	p := Slot(t.parent[x])
	if t.count[x] == 0 || t.count[p] == 0 {
		return 0 // indistinguishable from expected: prune first
	}
	d := 0.0
	row, prow := t.nextRow(x), t.nextRow(p)
	for s := range row {
		p1 := float64(row[s]) / float64(t.count[x])
		p2 := float64(prow[s]) / float64(t.count[p])
		d += math.Abs(p1 - p2)
	}
	return d
}
