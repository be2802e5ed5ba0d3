package pst

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand/v2"
	"strings"
	"testing"

	"cluseq/internal/seq"
)

func TestSaveLoadRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewPCG(4, 5))
	orig := MustNew(Config{
		AlphabetSize: 20, MaxDepth: 6, Significance: 7,
		PMin: 0.005, AdaptiveSignificance: true,
	})
	for i := 0; i < 10; i++ {
		orig.Insert(randomSymbols(rng, 200, 20))
	}

	var buf bytes.Buffer
	if err := orig.Save(&buf); err != nil {
		t.Fatalf("Save: %v", err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}

	if loaded.NumNodes() != orig.NumNodes() {
		t.Fatalf("NumNodes = %d, want %d", loaded.NumNodes(), orig.NumNodes())
	}
	if loaded.TotalSymbols() != orig.TotalSymbols() {
		t.Fatalf("TotalSymbols = %d, want %d", loaded.TotalSymbols(), orig.TotalSymbols())
	}
	if loaded.Config() != orig.Config() {
		t.Fatalf("Config = %+v, want %+v", loaded.Config(), orig.Config())
	}
	// Every node must match: counts, next vectors, structure.
	orig.Walk(func(x Slot) bool {
		m := loaded.Lookup(orig.Label(x))
		if m == NoSlot {
			t.Fatalf("node %v missing after round trip", orig.Label(x))
		}
		if loaded.Count(m) != orig.Count(x) || loaded.Depth(m) != orig.Depth(x) {
			t.Fatalf("node %v differs: %d/%d vs %d/%d", orig.Label(x), loaded.Count(m), loaded.Depth(m), orig.Count(x), orig.Depth(x))
		}
		for s := seq.Symbol(0); int(s) < 20; s++ {
			if loaded.NextCount(m, s) != orig.NextCount(x, s) {
				t.Fatalf("node %v next[%d] differs", orig.Label(x), s)
			}
		}
		return true
	})
	// Predictions must agree exactly.
	bg := make([]float64, 20)
	for i := range bg {
		bg[i] = 0.05
	}
	probe := randomSymbols(rng, 300, 20)
	a := orig.Similarity(probe, bg)
	b := loaded.Similarity(probe, bg)
	if a.LogSim != b.LogSim || a.Start != b.Start || a.End != b.End {
		t.Fatalf("similarity differs after round trip: %+v vs %+v", a, b)
	}
}

// TestCloneIndependentAndBitIdentical pins Clone's contract on an
// uncapped tree and on a capped tree the memory cap has pruned: the clone
// saves to the same bytes and scores the same as the original, starts at
// Version 1 with no prune events like a freshly loaded tree, and shares
// no state with it in either direction.
func TestCloneIndependentAndBitIdentical(t *testing.T) {
	const n = 8
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"uncapped", Config{AlphabetSize: n, MaxDepth: 5, Significance: 2}},
		{"capped", Config{AlphabetSize: n, MaxDepth: 5, Significance: 2, MaxBytes: 150 * (88 + 8*n + 48)}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewPCG(11, 3))
			orig := MustNew(tc.cfg)
			for i := 0; i < 20; i++ {
				orig.Insert(randomSymbols(rng, 150, n))
			}
			if tc.cfg.MaxBytes > 0 && orig.PruneEvents() == 0 {
				t.Fatal("the capped tree was never pruned")
			}
			clone := orig.Clone()
			if !bytes.Equal(saved(t, clone), saved(t, orig)) {
				t.Fatal("clone saves to different bytes than the original")
			}
			if clone.Version() != 1 || clone.PruneEvents() != 0 {
				t.Fatalf("clone Version %d, PruneEvents %d; want 1 and 0, as after Load", clone.Version(), clone.PruneEvents())
			}
			if clone.Stats() != orig.Stats() {
				t.Fatalf("clone Stats %+v, want %+v", clone.Stats(), orig.Stats())
			}
			bg := make([]float64, n)
			for i := range bg {
				bg[i] = 1.0 / n
			}
			probe := randomSymbols(rng, 200, n)
			if a, b := orig.Similarity(probe, bg), clone.Similarity(probe, bg); a != b {
				t.Fatalf("clone similarity differs: %+v vs %+v", a, b)
			}

			// Mutating either tree must not leak into the other.
			origBytes, cloneBytes := saved(t, orig), saved(t, clone)
			clone.Insert(randomSymbols(rng, 300, n))
			clone.Prune(clone.NumNodes() / 2)
			if !bytes.Equal(saved(t, orig), origBytes) {
				t.Fatal("original changed after the clone was mutated")
			}
			clone = orig.Clone()
			orig.Insert(probe)
			if !bytes.Equal(saved(t, clone), cloneBytes) {
				t.Fatal("clone changed after the original was mutated")
			}
		})
	}
}

// saved returns tree's Save output.
func saved(t *testing.T, tree *Tree) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := tree.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestSaveDeterministic(t *testing.T) {
	rng := rand.New(rand.NewPCG(9, 9))
	tree := MustNew(Config{AlphabetSize: 5, MaxDepth: 4, Significance: 2})
	tree.Insert(randomSymbols(rng, 100, 5))
	var b1, b2 bytes.Buffer
	if err := tree.Save(&b1); err != nil {
		t.Fatal(err)
	}
	if err := tree.Save(&b2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1.Bytes(), b2.Bytes()) {
		t.Fatal("Save output is not byte-deterministic")
	}
}

func TestLoadRejectsCorruptInput(t *testing.T) {
	cases := map[string][]byte{
		"empty":     {},
		"bad magic": []byte("NOTPST\n plus junk that is long enough"),
		"truncated": []byte("PSTv1\n\x01\x02"),
	}
	for name, in := range cases {
		if _, err := Load(bytes.NewReader(in)); err == nil {
			t.Errorf("%s: Load should fail", name)
		}
	}
}

func TestLoadRejectsTamperedNodeCount(t *testing.T) {
	tree := MustNew(Config{AlphabetSize: 3, MaxDepth: 3, Significance: 1})
	tree.Insert([]seq.Symbol{0, 1, 2, 0, 1})
	var buf bytes.Buffer
	if err := tree.Save(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	// The numNodes field sits at a fixed offset: magic(6) + 5×int64 +
	// float64 + byte + float64 + 2×int64 = 6 + 40 + 8 + 1 + 8 + 16 = 79.
	data[79] = 1 // clobber node count
	if _, err := Load(bytes.NewReader(data)); err == nil {
		t.Fatal("Load should reject mismatched node count")
	}
}

// TestLoadRejectsNonFiniteEstimator: a header whose p_min or shrinkage
// field is not a finite number the estimator accepts fails to load, as
// New rejects it.
func TestLoadRejectsNonFiniteEstimator(t *testing.T) {
	tree := MustNew(Config{AlphabetSize: 3, MaxDepth: 3, Significance: 1, Shrinkage: 4})
	tree.Insert([]seq.Symbol{0, 1, 2, 0, 1})
	var buf bytes.Buffer
	if err := tree.Save(&buf); err != nil {
		t.Fatal(err)
	}
	// p_min sits after magic(6) and 5×int64, shrinkage after p_min and
	// the adaptive byte.
	const pminOff, shrinkOff = 6 + 40, 6 + 40 + 8 + 1
	for _, tc := range []struct {
		name string
		off  int
		v    float64
	}{
		{"p_min NaN", pminOff, math.NaN()},
		{"shrinkage NaN", shrinkOff, math.NaN()},
		{"shrinkage +Inf", shrinkOff, math.Inf(1)},
		{"shrinkage -Inf", shrinkOff, math.Inf(-1)},
	} {
		data := append([]byte(nil), buf.Bytes()...)
		binary.LittleEndian.PutUint64(data[tc.off:], math.Float64bits(tc.v))
		if _, err := Load(bytes.NewReader(data)); err == nil {
			t.Errorf("%s: Load should fail", tc.name)
		}
	}
	if _, err := Load(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatalf("the untampered tree must load: %v", err)
	}
}

func TestSaveLoadEmptyTree(t *testing.T) {
	tree := MustNew(Config{AlphabetSize: 4})
	var buf bytes.Buffer
	if err := tree.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.NumNodes() != 1 || loaded.Count(loaded.Root()) != 0 {
		t.Fatalf("empty tree round trip: %d nodes, root count %d", loaded.NumNodes(), loaded.Count(loaded.Root()))
	}
}

func TestSaveLoadLargeAlphabetSparse(t *testing.T) {
	// Sparse next vectors over a large alphabet must stay compact.
	tree := MustNew(Config{AlphabetSize: 5000, MaxDepth: 3, Significance: 1})
	tree.Insert([]seq.Symbol{7, 4999, 7, 4999, 7})
	var buf bytes.Buffer
	if err := tree.Save(&buf); err != nil {
		t.Fatal(err)
	}
	if buf.Len() > 4096 {
		t.Fatalf("sparse tree serialized to %d bytes; next vectors not sparse?", buf.Len())
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	n := loaded.Lookup([]seq.Symbol{7})
	if n == NoSlot || loaded.NextCount(n, 4999) != 2 {
		t.Fatal("sparse counts lost in round trip")
	}
}

func TestLoadGarbageAfterValidHeader(t *testing.T) {
	tree := MustNew(Config{AlphabetSize: 3, MaxDepth: 3, Significance: 1})
	tree.Insert([]seq.Symbol{0, 1, 2})
	var buf bytes.Buffer
	if err := tree.Save(&buf); err != nil {
		t.Fatal(err)
	}
	// Truncate mid-node.
	data := buf.Bytes()[:buf.Len()-3]
	if _, err := Load(bytes.NewReader(data)); err == nil {
		t.Fatal("Load should fail on truncated node data")
	}
	if _, err := Load(strings.NewReader(string(buf.Bytes()) + "trailing")); err != nil {
		t.Fatal("trailing bytes after a complete tree should be ignored (stream use)")
	}
}

// savedTestTree returns the serialized bytes of a small valid tree.
func savedTestTree(t *testing.T) []byte {
	t.Helper()
	tree := MustNew(Config{AlphabetSize: 3, MaxDepth: 3, Significance: 1})
	tree.Insert([]seq.Symbol{0, 1, 2, 0, 1})
	var buf bytes.Buffer
	if err := tree.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// Header layout after the 6-byte magic: alphabet(int64), maxDepth(int64),
// significance(int64), maxBytes(int64), prune(int64), pmin(float64),
// adaptive(byte), shrinkage(float64), insertions(int64), pruned(int64),
// numNodes(int64). First node starts at byte 87.
const (
	offAlphabet  = 6
	offMaxDepth  = 14
	offNumNodes  = 79
	offFirstNode = 87
)

func TestLoadFailsFastOnOversizedHeader(t *testing.T) {
	patch := func(data []byte, off int, v uint64) []byte {
		out := append([]byte(nil), data...)
		for i := 0; i < 8; i++ {
			out[off+i] = byte(v >> (8 * i))
		}
		return out
	}
	base := savedTestTree(t)
	cases := map[string][]byte{
		// Each would previously attempt (or begin) a huge allocation or
		// an unbounded walk; all must be rejected on the header alone.
		"giant alphabet":     patch(base, offAlphabet, 1<<40),
		"alphabet over max":  patch(base, offAlphabet, uint64(seq.MaxAlphabetSize)+1),
		"zero alphabet":      patch(base, offAlphabet, 0),
		"giant node count":   patch(base, offNumNodes, 1<<40),
		"zero node count":    patch(base, offNumNodes, 0),
		"negative max depth": patch(base, offMaxDepth, ^uint64(0)),
	}
	for name, data := range cases {
		if _, err := Load(bytes.NewReader(data)); err == nil {
			t.Errorf("%s: Load should fail", name)
		}
	}
}

func TestLoadRejectsOversizedChildCount(t *testing.T) {
	data := savedTestTree(t)
	// Root node layout: symbol(uint16), count(int64), nonZero(uint32),
	// children(uint32). Clobber the child count with a value far beyond
	// the declared node total; the loader must refuse before pre-sizing
	// a map for it.
	off := offFirstNode + 2 + 8 + 4
	for i, b := range []byte{0xFF, 0xFF, 0xFF, 0x7F} {
		data[off+i] = b
	}
	_, err := Load(bytes.NewReader(data))
	if err == nil {
		t.Fatal("Load should reject a child count beyond the declared node total")
	}
	if !strings.Contains(err.Error(), "children") {
		t.Fatalf("error should name the child-count section, got: %v", err)
	}
}

func TestLoadErrorsNameSection(t *testing.T) {
	data := savedTestTree(t)
	// Truncate inside the header, then inside a node: the error must say
	// which section was being read, not surface a bare EOF.
	for _, cut := range []struct {
		name, want string
		at         int
	}{
		{"header", "header field", offAlphabet + 3},
		{"node", "node 0", offFirstNode + 1},
	} {
		_, err := Load(bytes.NewReader(data[:cut.at]))
		if err == nil {
			t.Fatalf("%s: Load should fail on truncation", cut.name)
		}
		if !strings.Contains(err.Error(), cut.want) {
			t.Fatalf("%s: error %q should mention %q", cut.name, err, cut.want)
		}
	}
}

// TestLoadRejectsOutOfAlphabetEdge: a child's edge symbol indexes the
// compiled snapshot's dense transition rows, so one at or beyond the
// alphabet must fail Load with an error naming the node, not load and
// then panic in CompileSnapshot.
func TestLoadRejectsOutOfAlphabetEdge(t *testing.T) {
	tree := MustNew(Config{AlphabetSize: 3, MaxDepth: 1, Significance: 1})
	tree.Insert([]seq.Symbol{0, 1, 2, 0})
	data := saved(t, tree)
	// The first child follows the root's fixed fields and its non-zero
	// (symbol uint16, count int64) entries.
	child := offFirstNode + nodeHeaderBytes + 10*int(binary.LittleEndian.Uint32(data[offFirstNode+10:]))
	binary.LittleEndian.PutUint16(data[child:], 60000)
	_, err := Load(bytes.NewReader(data))
	if err == nil {
		t.Fatal("Load should reject an edge symbol outside the alphabet")
	}
	if !strings.Contains(err.Error(), "node 1") || !strings.Contains(err.Error(), "edge symbol 60000") {
		t.Fatalf("error should name node 1 and its edge symbol, got: %v", err)
	}
}

// TestLoadSortsChildren: children may arrive in any symbol order; Load
// files each at its sorted place, so the tree saves back in sorted order
// and scores like the original.
func TestLoadSortsChildren(t *testing.T) {
	tree := MustNew(Config{AlphabetSize: 3, MaxDepth: 1, Significance: 1})
	tree.Insert([]seq.Symbol{0, 1, 2, 0, 2, 2})
	data := saved(t, tree)
	// Each depth-1 node is a leaf: fixed fields, then its entries.
	node := offFirstNode + nodeHeaderBytes + 10*int(binary.LittleEndian.Uint32(data[offFirstNode+10:]))
	var kids [][]byte
	for i := 0; i < 3; i++ {
		end := node + nodeHeaderBytes + 10*int(binary.LittleEndian.Uint32(data[node+10:]))
		kids = append(kids, append([]byte(nil), data[node:end]...))
		node = end
	}
	shuffled := append([]byte(nil), data[:offFirstNode+nodeHeaderBytes+10*int(binary.LittleEndian.Uint32(data[offFirstNode+10:]))]...)
	for _, k := range []int{2, 0, 1} {
		shuffled = append(shuffled, kids[k]...)
	}
	loaded, err := Load(bytes.NewReader(shuffled))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(saved(t, loaded), data) {
		t.Fatal("a tree loaded from unsorted children does not save back to the sorted original")
	}
	// The same symbol twice under one parent is corrupt.
	dup := append(append([]byte(nil), shuffled[:len(shuffled)-len(kids[1])]...), kids[2]...)
	if _, err := Load(bytes.NewReader(dup)); err == nil || !strings.Contains(err.Error(), "duplicate child symbol") {
		t.Fatalf("Load should reject a duplicate child symbol, got: %v", err)
	}
}

// TestLoadRejectsNonMonotoneCount: below depth 1 a context's count never
// exceeds its parent's, and snapshots rely on that to find the same
// prediction node as the tree, so Load refuses a stream that breaks it.
// A depth-1 count above the root's is legitimate: end-of-data
// observations count toward contexts but not the root.
func TestLoadRejectsNonMonotoneCount(t *testing.T) {
	tree := MustNew(Config{AlphabetSize: 2, MaxDepth: 2, Significance: 1})
	tree.Insert([]seq.Symbol{0, 1, 0, 1})
	x := tree.Lookup([]seq.Symbol{1, 0})
	tree.setCounts(x, tree.Count(Slot(tree.parent[x]))+1)
	if _, err := Load(bytes.NewReader(saved(t, tree))); err == nil || !strings.Contains(err.Error(), "exceeds its parent's") {
		t.Fatalf("Load should reject a count above the parent's, got: %v", err)
	}

	eod := MustNew(Config{AlphabetSize: 2, MaxDepth: 2, Significance: 1})
	if err := eod.InsertCounts([]seq.Symbol{1, 0}, 2, 5); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(bytes.NewReader(saved(t, eod))); err != nil {
		t.Fatalf("end-of-data counts above the root's must load: %v", err)
	}
}

// TestLoadRefusesUnclosableTree: a tree that is one random root path,
// which no Insert grows, closes under suffix links into every substring
// of its context: about k²/2 nodes for a path of k. Load refuses such a
// path once its closure passes closureLimit, after linear work; a
// shorter one loads, and its snapshot, with about 90 virtual nodes per
// real one, scores like the tree.
func TestLoadRefusesUnclosableTree(t *testing.T) {
	rng := rand.New(rand.NewPCG(91, 92))
	path := func(k int) ([]byte, []seq.Symbol) {
		tree := MustNew(Config{AlphabetSize: 2, MaxDepth: k, Significance: 1})
		x := tree.Root()
		tree.count[x] = int64(k)
		tree.nextRow(x)[0], tree.nextRow(x)[1] = int64(k/2), int64(k-k/2)
		context := make([]seq.Symbol, k) // oldest symbol first
		for d := range k {
			context[k-1-d] = seq.Symbol(rng.IntN(2))
			x = tree.ensureChild(x, context[k-1-d])
			tree.count[x] = 1
			tree.nextRow(x)[rng.IntN(2)] = 1
		}
		var buf bytes.Buffer
		if err := tree.Save(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes(), context
	}
	long, _ := path(2000)
	if _, err := Load(bytes.NewReader(long)); err == nil || !strings.Contains(err.Error(), "suffix links") {
		t.Fatalf("a 2000-node path must be refused for its closure, got %v", err)
	}
	short, context := path(200)
	tree, err := Load(bytes.NewReader(short))
	if err != nil {
		t.Fatal(err)
	}
	bg := uniformBg(2)
	snap := tree.CompileSnapshot(bg)
	if virtual := requireVirtualRows(t, tree, snap); virtual < 50*tree.NumNodes() {
		t.Fatalf("the 200-node path closed with only %d virtual nodes", virtual)
	}
	requireIdentical(t, tree, snap, append(context, randomSymbols(rng, 50, 2)...), bg)
	for range 8 {
		requireIdentical(t, tree, snap, randomSymbols(rng, 1+rng.IntN(400), 2), bg)
	}
}
