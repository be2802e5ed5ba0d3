package pst

import (
	"math"
	"math/rand/v2"
	"testing"

	"cluseq/internal/seq"
)

func randomSymbols(rng *rand.Rand, n, alpha int) []seq.Symbol {
	out := make([]seq.Symbol, n)
	for i := range out {
		out[i] = seq.Symbol(rng.IntN(alpha))
	}
	return out
}

func TestMemoryCapEnforced(t *testing.T) {
	cfg := Config{AlphabetSize: 4, MaxDepth: 8, Significance: 2, MaxBytes: 40_000}
	tr := MustNew(cfg)
	rng := rand.New(rand.NewPCG(1, 2))
	for i := 0; i < 30; i++ {
		tr.Insert(randomSymbols(rng, 500, 4))
	}
	if tr.EstimatedBytes() > cfg.MaxBytes {
		t.Fatalf("EstimatedBytes = %d exceeds cap %d", tr.EstimatedBytes(), cfg.MaxBytes)
	}
	if tr.PrunedNodes() == 0 {
		t.Fatal("expected pruning to have occurred")
	}
	// The tree must remain structurally sound: every child's parent link
	// is intact and counts stay monotone.
	tr.Walk(func(x Slot) bool {
		syms, slots := tr.kids(x)
		for i, c := range slots {
			if Slot(tr.parent[c]) != x || tr.edge[c] != syms[i] {
				t.Fatal("broken parent/child linkage after pruning")
			}
			if i > 0 && syms[i-1] >= syms[i] {
				t.Fatal("child run out of order after pruning")
			}
			if tr.Count(Slot(c)) > tr.Count(x) {
				t.Fatal("count monotonicity violated after pruning")
			}
		}
		return true
	})
}

func TestPruneNeverRemovesRoot(t *testing.T) {
	a := seq.MustAlphabet("ab")
	tr := MustNew(Config{AlphabetSize: 2, MaxDepth: 4, Significance: 1})
	syms, _ := a.Encode("abbaabba")
	tr.Insert(syms)
	tr.Prune(1)
	if tr.NumNodes() != 1 {
		t.Fatalf("NumNodes = %d, want 1", tr.NumNodes())
	}
	if tr.Count(tr.Root()) != 8 {
		t.Fatal("root must survive pruning with its count intact")
	}
	// Prediction still works, falling back to the root distribution.
	p := tr.Predict(syms[:3], 0)
	if p != 0.5 {
		t.Fatalf("post-prune P(a|·) = %v, want root value 0.5", p)
	}
}

func TestPruneMinCountKeepsHighCountNodes(t *testing.T) {
	a := seq.MustAlphabet("ab")
	tr := MustNew(Config{AlphabetSize: 2, MaxDepth: 3, Significance: 1, Prune: PruneMinCount})
	// "a" dominates; contexts containing b are rare.
	syms, _ := a.Encode("aaaaaaaaaaaaaaaaaaaabaaaaaaaaaaaaaaaaaaaa")
	tr.Insert(syms)
	before := tr.NumNodes()
	tr.Prune(5)
	if tr.NumNodes() > 5 || tr.NumNodes() >= before {
		t.Fatalf("NumNodes = %d (before %d), want ≤ 5", tr.NumNodes(), before)
	}
	// The all-a spine has the highest counts and must survive.
	if tr.Lookup([]seq.Symbol{0}) == NoSlot {
		t.Fatal("highest-count context \"a\" was pruned before rarer ones")
	}
}

func TestPruneLongestLabelKeepsShallowNodes(t *testing.T) {
	a := seq.MustAlphabet("ab")
	tr := MustNew(Config{AlphabetSize: 2, MaxDepth: 6, Significance: 1, Prune: PruneLongestLabel})
	syms, _ := a.Encode("abababababababab")
	tr.Insert(syms)
	tr.Prune(3) // root + the two depth-1 contexts
	maxDepth := 0
	tr.Walk(func(x Slot) bool {
		maxDepth = max(maxDepth, tr.Depth(x))
		return true
	})
	if maxDepth > 1 {
		t.Fatalf("after longest-label pruning to 3 nodes, max depth = %d, want 1", maxDepth)
	}
}

func TestPruneExpectedVectorKeepsSurprisingNodes(t *testing.T) {
	// Construct a tree where context "a" has a child "aa" whose
	// distribution matches it (expected) and a child "ba" that differs
	// sharply. Expected-vector pruning must evict "aa" first.
	tr := MustNew(Config{AlphabetSize: 2, MaxDepth: 2, Significance: 1, Prune: PruneExpectedVector})
	root := tr.Root()
	tr.setCounts(root, 100, 50, 50)
	na := tr.ensureChild(root, 0)
	tr.setCounts(na, 60, 30, 30)
	naa := tr.ensureChild(na, 0) // context "aa": same 50/50 split as "a"
	tr.setCounts(naa, 30, 15, 15)
	nba := tr.ensureChild(na, 1) // context "ba": extreme split
	tr.setCounts(nba, 30, 29, 1)

	tr.Prune(3)
	if tr.Lookup([]seq.Symbol{0, 0}) != NoSlot {
		t.Fatal("expected-vector pruning should evict the redundant context aa")
	}
	if tr.Lookup([]seq.Symbol{1, 0}) == NoSlot {
		t.Fatal("the surprising context ba must survive")
	}
}

func TestPruneAutoEvictsInsignificantFirst(t *testing.T) {
	tr := MustNew(Config{AlphabetSize: 2, MaxDepth: 2, Significance: 20, Prune: PruneAuto})
	root := tr.Root()
	tr.setCounts(root, 100, 50, 50)
	big := tr.ensureChild(root, 0) // significant leaf
	tr.setCounts(big, 50, 25)
	small := tr.ensureChild(root, 1) // insignificant leaf
	tr.setCounts(small, 5, 2)

	tr.Prune(2)
	if tr.Lookup([]seq.Symbol{1}) != NoSlot {
		t.Fatal("auto pruning must evict the insignificant node first")
	}
	if tr.Lookup([]seq.Symbol{0}) == NoSlot {
		t.Fatal("the significant node must survive")
	}
}

func TestPruneIsNoOpWhenUnderTarget(t *testing.T) {
	a := seq.MustAlphabet("ab")
	tr := MustNew(Config{AlphabetSize: 2, MaxDepth: 2, Significance: 1})
	syms, _ := a.Encode("ab")
	tr.Insert(syms)
	n := tr.NumNodes()
	tr.Prune(1000)
	if tr.NumNodes() != n {
		t.Fatal("Prune above current size must not change the tree")
	}
}

func TestPruningPreservesSimilarityQuality(t *testing.T) {
	// §5.1 claims little accuracy degradation from pruning. Verify the
	// log-similarity of a matching probe changes only moderately when the
	// tree is pruned to a quarter of its size under the auto strategy.
	rng := rand.New(rand.NewPCG(11, 13))
	tr := MustNew(Config{AlphabetSize: 3, MaxDepth: 6, Significance: 3, PMin: 0.001, Prune: PruneAuto})
	// Structured source: strong short-memory pattern 0, 1, 2, 0, …
	train := make([]seq.Symbol, 3000)
	for i := range train {
		if rng.Float64() < 0.9 {
			train[i] = seq.Symbol(i % 3)
		} else {
			train[i] = seq.Symbol(rng.IntN(3))
		}
	}
	tr.Insert(train)
	probe := make([]seq.Symbol, 120)
	for i := range probe {
		probe[i] = seq.Symbol(i % 3)
	}
	bg := []float64{1.0 / 3, 1.0 / 3, 1.0 / 3}
	before := tr.Similarity(probe, bg).LogSim
	tr.Prune(tr.NumNodes() / 4)
	after := tr.Similarity(probe, bg).LogSim
	if math.IsInf(after, -1) {
		t.Fatal("similarity collapsed to zero after pruning")
	}
	if after < before*0.5 || after > before*1.5 {
		t.Fatalf("similarity moved too much after pruning: before %v, after %v", before, after)
	}
	if after <= 0 {
		t.Fatalf("matching probe should still score above background after pruning: %v", after)
	}
}
