package pst

import (
	"math/rand/v2"
	"testing"

	"cluseq/internal/seq"
)

// TestMergeEqualsUnionBuild is the defining property: merging two trees
// must give exactly the tree built from both insertion streams.
func TestMergeEqualsUnionBuild(t *testing.T) {
	rng := rand.New(rand.NewPCG(51, 52))
	cfg := Config{AlphabetSize: 4, MaxDepth: 5, Significance: 2, PMin: 0.01}
	for trial := 0; trial < 20; trial++ {
		a := randomSymbols(rng, 50+rng.IntN(100), 4)
		b := randomSymbols(rng, 50+rng.IntN(100), 4)

		t1 := MustNew(cfg)
		t1.Insert(a)
		t2 := MustNew(cfg)
		t2.Insert(b)
		if err := t1.Merge(t2); err != nil {
			t.Fatal(err)
		}

		union := MustNew(cfg)
		union.Insert(a)
		union.Insert(b)

		if t1.NumNodes() != union.NumNodes() {
			t.Fatalf("merged nodes %d, union %d", t1.NumNodes(), union.NumNodes())
		}
		if t1.TotalSymbols() != union.TotalSymbols() {
			t.Fatalf("merged symbols %d, union %d", t1.TotalSymbols(), union.TotalSymbols())
		}
		union.Walk(func(x Slot) bool {
			m := t1.Lookup(union.Label(x))
			if m == NoSlot || t1.Count(m) != union.Count(x) {
				t.Fatalf("context %v: merged count mismatch", union.Label(x))
			}
			for s := seq.Symbol(0); s < 4; s++ {
				if t1.NextCount(m, s) != union.NextCount(x, s) {
					t.Fatalf("context %v next %d mismatch", union.Label(x), s)
				}
			}
			return true
		})

		// Predictions identical on a probe.
		bg := []float64{0.25, 0.25, 0.25, 0.25}
		probe := randomSymbols(rng, 40, 4)
		if x, y := t1.Similarity(probe, bg), union.Similarity(probe, bg); x.LogSim != y.LogSim {
			t.Fatalf("merged similarity %v != union %v", x.LogSim, y.LogSim)
		}
	}
}

func TestMergeValidation(t *testing.T) {
	t1 := MustNew(Config{AlphabetSize: 3, MaxDepth: 4, Significance: 1})
	if err := t1.Merge(nil); err != nil {
		t.Fatalf("nil merge should be a no-op: %v", err)
	}
	t2 := MustNew(Config{AlphabetSize: 4, MaxDepth: 4, Significance: 1})
	if err := t1.Merge(t2); err == nil {
		t.Fatal("alphabet mismatch should fail")
	}
	t3 := MustNew(Config{AlphabetSize: 3, MaxDepth: 5, Significance: 1})
	if err := t1.Merge(t3); err == nil {
		t.Fatal("depth mismatch should fail")
	}
}

func TestMergeRespectsMemoryCap(t *testing.T) {
	cfg := Config{AlphabetSize: 4, MaxDepth: 6, Significance: 1, MaxBytes: 30_000}
	rng := rand.New(rand.NewPCG(53, 54))
	t1 := MustNew(cfg)
	t1.Insert(randomSymbols(rng, 300, 4))
	t2 := MustNew(cfg)
	t2.Insert(randomSymbols(rng, 300, 4))
	if err := t1.Merge(t2); err != nil {
		t.Fatal(err)
	}
	if t1.EstimatedBytes() > cfg.MaxBytes {
		t.Fatalf("merged tree %d bytes exceeds cap %d", t1.EstimatedBytes(), cfg.MaxBytes)
	}
}

func TestInsertCountsMatchesInsert(t *testing.T) {
	// Feeding every (context, next) observation of a sequence through
	// InsertCounts must reproduce Insert exactly.
	rng := rand.New(rand.NewPCG(55, 56))
	cfg := Config{AlphabetSize: 3, MaxDepth: 4, Significance: 1}
	syms := randomSymbols(rng, 80, 3)

	direct := MustNew(cfg)
	direct.Insert(syms)

	manual := MustNew(cfg)
	for i := 0; i < len(syms); i++ {
		lo := i - 4
		if lo < 0 {
			lo = 0
		}
		if err := manual.InsertCounts(syms[lo:i], syms[i], 1); err != nil {
			t.Fatal(err)
		}
	}
	// Tail occurrences (no successor): one call with the longest tail
	// context covers every suffix depth along the walk. next = alphabet
	// size acts as the no-successor sentinel.
	if err := manual.InsertCounts(syms[len(syms)-4:], seq.Symbol(3), 1); err != nil {
		t.Fatal(err)
	}

	if direct.NumNodes() != manual.NumNodes() {
		t.Fatalf("nodes %d vs %d", direct.NumNodes(), manual.NumNodes())
	}
	direct.Walk(func(x Slot) bool {
		m := manual.Lookup(direct.Label(x))
		if m == NoSlot || manual.Count(m) != direct.Count(x) {
			t.Fatalf("context %v count mismatch", direct.Label(x))
		}
		for s := seq.Symbol(0); s < 3; s++ {
			if manual.NextCount(m, s) != direct.NextCount(x, s) {
				t.Fatalf("context %v next mismatch", direct.Label(x))
			}
		}
		return true
	})
	if direct.TotalSymbols() != manual.TotalSymbols() {
		t.Fatalf("symbols %d vs %d", direct.TotalSymbols(), manual.TotalSymbols())
	}
}

func TestInsertCountsValidation(t *testing.T) {
	tr := MustNew(Config{AlphabetSize: 2, MaxDepth: 2, Significance: 1})
	if err := tr.InsertCounts(nil, 0, -1); err == nil {
		t.Fatal("negative count should fail")
	}
	// Long contexts are truncated to MaxDepth, not rejected.
	if err := tr.InsertCounts([]seq.Symbol{0, 1, 0, 1, 0}, 1, 2); err != nil {
		t.Fatal(err)
	}
	n := tr.Lookup([]seq.Symbol{1, 0})
	if n == NoSlot || tr.Count(n) != 2 {
		t.Fatalf("truncated context not recorded: %+v", n)
	}
}
