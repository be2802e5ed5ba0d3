package pst

import (
	"math"
	"math/rand/v2"
	"testing"

	"cluseq/internal/seq"
)

func TestPredictShrunkBlendsTowardParent(t *testing.T) {
	// Hand-wired two-level tree: root says P(a)=0.5, context "a" observed
	// 4 times always followed by a. With κ=4, the blend must sit exactly
	// between the child's empirical 1.0 and the root's 0.5:
	// (4·1 + 4·0.5)/(4+4) = 0.75.
	tr := MustNew(Config{AlphabetSize: 2, MaxDepth: 2, Significance: 1, Shrinkage: 4})
	root := tr.Root()
	root.Count = 100
	root.next[0], root.next[1] = 50, 50
	na := tr.ensureChild(root, 0)
	na.Count = 4
	na.next[0] = 4

	got := tr.Predict([]seq.Symbol{0}, 0)
	if math.Abs(got-0.75) > 1e-12 {
		t.Fatalf("shrunk P(a|a) = %v, want 0.75", got)
	}
	// Unseen context symbol: blend of child 0 and root 0.5.
	got = tr.Predict([]seq.Symbol{0}, 1)
	if math.Abs(got-0.25) > 1e-12 {
		t.Fatalf("shrunk P(b|a) = %v, want 0.25", got)
	}
	// Missing context: falls back to the deepest existing node (root).
	got = tr.Predict([]seq.Symbol{1}, 0)
	if math.Abs(got-0.5) > 1e-12 {
		t.Fatalf("shrunk P(a|b) = %v, want root 0.5", got)
	}
}

func TestPredictShrunkDeepCountsDominate(t *testing.T) {
	// A heavily observed deep context must override its parent.
	tr := MustNew(Config{AlphabetSize: 2, MaxDepth: 2, Significance: 1, Shrinkage: 4})
	root := tr.Root()
	root.Count = 1000
	root.next[0], root.next[1] = 500, 500
	na := tr.ensureChild(root, 0)
	na.Count = 10000
	na.next[1] = 10000 // after "a", always b
	got := tr.Predict([]seq.Symbol{0}, 1)
	if got < 0.99 {
		t.Fatalf("shrunk P(b|a) = %v, want ≈ 1 for overwhelming counts", got)
	}
}

func TestShrinkageSimilarityConsistent(t *testing.T) {
	// The DP with shrinkage must equal position-by-position Predict-based
	// brute force, like the plain estimator does.
	rng := rand.New(rand.NewPCG(41, 42))
	tr := MustNew(Config{AlphabetSize: 3, MaxDepth: 4, Significance: 2, Shrinkage: 6, PMin: 0.01})
	tr.Insert(randomSymbols(rng, 150, 3))
	probe := randomSymbols(rng, 40, 3)
	bg := []float64{0.4, 0.35, 0.25}

	logX := make([]float64, len(probe))
	for i, sym := range probe {
		lo := i - 4
		if lo < 0 {
			lo = 0
		}
		p := tr.Predict(probe[lo:i], sym)
		logX[i] = math.Log(p) - math.Log(bg[sym])
	}
	want := math.Inf(-1)
	for i := range probe {
		sum := 0.0
		for j := i; j < len(probe); j++ {
			sum += logX[j]
			if sum > want {
				want = sum
			}
		}
	}
	got := tr.Similarity(probe, bg)
	if math.Abs(got.LogSim-want) > 1e-9 {
		t.Fatalf("shrinkage similarity %v, brute force %v", got.LogSim, want)
	}
}

func TestSimilaritySeq(t *testing.T) {
	a := seq.MustAlphabet("ab")
	tr := MustNew(Config{AlphabetSize: 2, MaxDepth: 3, Significance: 1, PMin: 0.01})
	syms, _ := a.Encode("ababab")
	tr.Insert(syms)
	s := &seq.Sequence{ID: "x", Symbols: syms}
	bg := []float64{0.5, 0.5}
	if got, want := tr.SimilaritySeq(s, bg), tr.Similarity(syms, bg); got != want {
		t.Fatalf("SimilaritySeq = %+v, want %+v", got, want)
	}
}
