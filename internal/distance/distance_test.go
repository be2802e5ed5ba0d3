package distance

import (
	"math/rand/v2"
	"testing"
	"testing/quick"

	"cluseq/internal/seq"
)

func enc(t *testing.T, a *seq.Alphabet, s string) []seq.Symbol {
	t.Helper()
	syms, err := a.Encode(s)
	if err != nil {
		t.Fatalf("encode %q: %v", s, err)
	}
	return syms
}

var alpha = seq.MustAlphabet("abcdefg")

func TestLevenshteinClassicCases(t *testing.T) {
	cases := []struct {
		a, b string
		want int
	}{
		{"", "", 0},
		{"a", "", 1},
		{"", "abc", 3},
		{"abc", "abc", 0},
		{"abc", "abd", 1},
		{"abc", "acb", 2},
		{"gambol", "gumbo", 2},
		{"aaaabbb", "bbbaaaa", 6}, // the paper's footnote 1 example
		{"aaaabbb", "abcdefg", 6}, // …equal to this unrelated pair under ED
	}
	a7 := seq.MustAlphabet("abcdefgumol")
	for _, c := range cases {
		got := Levenshtein(enc(t, a7, c.a), enc(t, a7, c.b))
		if got != c.want {
			t.Errorf("Levenshtein(%q, %q) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func randSyms(rng *rand.Rand, n, k int) []seq.Symbol {
	out := make([]seq.Symbol, n)
	for i := range out {
		out[i] = seq.Symbol(rng.IntN(k))
	}
	return out
}

func TestLevenshteinSymmetric(t *testing.T) {
	rng := rand.New(rand.NewPCG(5, 6))
	for trial := 0; trial < 50; trial++ {
		a := randSyms(rng, rng.IntN(30), 3)
		b := randSyms(rng, rng.IntN(30), 3)
		if Levenshtein(a, b) != Levenshtein(b, a) {
			t.Fatalf("asymmetric: %v vs %v", a, b)
		}
	}
}

func TestLevenshteinTriangleInequality(t *testing.T) {
	rng := rand.New(rand.NewPCG(8, 2))
	for trial := 0; trial < 50; trial++ {
		a := randSyms(rng, rng.IntN(20), 3)
		b := randSyms(rng, rng.IntN(20), 3)
		c := randSyms(rng, rng.IntN(20), 3)
		ab, bc, ac := Levenshtein(a, b), Levenshtein(b, c), Levenshtein(a, c)
		if ac > ab+bc {
			t.Fatalf("triangle violated: d(a,c)=%d > d(a,b)+d(b,c)=%d", ac, ab+bc)
		}
	}
}

func TestLevenshteinBounds(t *testing.T) {
	// |len(a)−len(b)| ≤ d ≤ max(len(a), len(b)).
	f := func(ra, rb []byte) bool {
		a := make([]seq.Symbol, len(ra)%40)
		for i := range a {
			a[i] = seq.Symbol(ra[i] % 4)
		}
		b := make([]seq.Symbol, len(rb)%40)
		for i := range b {
			b[i] = seq.Symbol(rb[i] % 4)
		}
		d := Levenshtein(a, b)
		lo := max(len(a), len(b)) - min(len(a), len(b))
		hi := max(len(a), len(b))
		return d >= lo && d <= hi
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestNormalizedLevenshtein(t *testing.T) {
	a := enc(t, alpha, "abc")
	b := enc(t, alpha, "abd")
	if got := NormalizedLevenshtein(a, b); got != 1.0/3 {
		t.Fatalf("normalized = %v, want 1/3", got)
	}
	if got := NormalizedLevenshtein(nil, nil); got != 0 {
		t.Fatalf("empty normalized = %v, want 0", got)
	}
	if got := NormalizedLevenshtein(a, nil); got != 1 {
		t.Fatalf("vs-empty normalized = %v, want 1", got)
	}
}

func TestBlockEditDistanceRecognizesBlockSwap(t *testing.T) {
	// The paper's motivating example: aaaabbb vs bbbaaaa share the blocks
	// aaaa and bbb, so EDBO must see them as far closer than ED does, and
	// closer than the unrelated abcdefg.
	a := enc(t, alpha, "aaaabbb")
	b := enc(t, alpha, "bbbaaaa")
	c := enc(t, alpha, "abcdefg")
	dAB := BlockEditDistance(a, b, BlockConfig{})
	dAC := BlockEditDistance(a, c, BlockConfig{})
	if dAB >= dAC {
		t.Fatalf("EDBO(aaaabbb, bbbaaaa) = %v must be < EDBO(aaaabbb, abcdefg) = %v", dAB, dAC)
	}
	if dAB != 2 { // two blocks, nothing leftover
		t.Fatalf("EDBO(aaaabbb, bbbaaaa) = %v, want 2", dAB)
	}
	// ED sees both pairs at distance 6 — the contrast EDBO fixes.
	if Levenshtein(a, b) != Levenshtein(a, c) {
		t.Fatal("precondition: ED should tie the two pairs")
	}
}

func TestBlockEditDistanceIdentical(t *testing.T) {
	a := enc(t, alpha, "abcabcabc")
	if got := BlockEditDistance(a, a, BlockConfig{}); got != 1 {
		t.Fatalf("identical sequences = one block, got %v", got)
	}
}

func TestBlockEditDistanceSymmetric(t *testing.T) {
	rng := rand.New(rand.NewPCG(2, 7))
	for trial := 0; trial < 40; trial++ {
		a := randSyms(rng, rng.IntN(40), 3)
		b := randSyms(rng, rng.IntN(40), 3)
		d1 := BlockEditDistance(a, b, BlockConfig{})
		d2 := BlockEditDistance(b, a, BlockConfig{})
		if d1 != d2 {
			t.Fatalf("asymmetric block edit: %v vs %v", d1, d2)
		}
	}
}

func TestBlockEditDistanceDisjoint(t *testing.T) {
	a := enc(t, alpha, "aaaa")
	b := enc(t, alpha, "bbbb")
	// No common block: all 8 symbols leftover.
	if got := BlockEditDistance(a, b, BlockConfig{}); got != 8 {
		t.Fatalf("disjoint EDBO = %v, want 8", got)
	}
}

func TestBlockEditDistanceMinBlock(t *testing.T) {
	a := enc(t, alpha, "abab")
	b := enc(t, alpha, "baba")
	// With MinBlock 4, the length-3 common segments don't count.
	if got := BlockEditDistance(a, b, BlockConfig{MinBlock: 4}); got != 8 {
		t.Fatalf("EDBO MinBlock=4 = %v, want 8", got)
	}
	// With MinBlock 3, "aba" (or "bab") matches once.
	if got := BlockEditDistance(a, b, BlockConfig{MinBlock: 3}); got != 1+2 {
		t.Fatalf("EDBO MinBlock=3 = %v, want 3", got)
	}
}

func TestBlockEditCostsRespected(t *testing.T) {
	a := enc(t, alpha, "abcabc")
	b := enc(t, alpha, "abcddd")
	// One block "abc", leftover abc on side a? No: greedy finds "abc"
	// once (len 3); second "abc" in a has no partner; leftover = 3 (a) +
	// 3 (ddd in b) = 6.
	got := BlockEditDistance(a, b, BlockConfig{BlockCost: 5, CharCost: 2})
	if got != 5+6*2 {
		t.Fatalf("cost = %v, want 17", got)
	}
}

func TestNormalizedBlockEditDistance(t *testing.T) {
	a := enc(t, alpha, "aaaa")
	b := enc(t, alpha, "bbbb")
	if got := NormalizedBlockEditDistance(a, b, BlockConfig{}); got != 1 {
		t.Fatalf("disjoint normalized = %v, want 1", got)
	}
	if got := NormalizedBlockEditDistance(nil, nil, BlockConfig{}); got != 0 {
		t.Fatalf("empty normalized = %v, want 0", got)
	}
	f := func(ra, rb []byte) bool {
		a := make([]seq.Symbol, len(ra)%30)
		for i := range a {
			a[i] = seq.Symbol(ra[i] % 3)
		}
		b := make([]seq.Symbol, len(rb)%30)
		for i := range b {
			b[i] = seq.Symbol(rb[i] % 3)
		}
		d := NormalizedBlockEditDistance(a, b, BlockConfig{})
		return d >= 0 && d <= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
