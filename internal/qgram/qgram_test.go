package qgram

import (
	"math"
	"math/rand/v2"
	"testing"
	"testing/quick"

	"cluseq/internal/seq"
)

var alpha = seq.MustAlphabet("abcd")

func enc(t *testing.T, s string) []seq.Symbol {
	t.Helper()
	syms, err := alpha.Encode(s)
	if err != nil {
		t.Fatalf("encode %q: %v", s, err)
	}
	return syms
}

func TestNewProfileCounts(t *testing.T) {
	p := NewProfile(enc(t, "abab"), 2)
	if p.Len() != 2 {
		t.Fatalf("Len = %d, want 2 (ab, ba)", p.Len())
	}
	if got := p.Count(enc(t, "ab")); got != 2 {
		t.Fatalf("Count(ab) = %v, want 2", got)
	}
	if got := p.Count(enc(t, "ba")); got != 1 {
		t.Fatalf("Count(ba) = %v, want 1", got)
	}
	if got := p.Count(enc(t, "aa")); got != 0 {
		t.Fatalf("Count(aa) = %v, want 0", got)
	}
	if got := p.Count(enc(t, "a")); got != 0 {
		t.Fatalf("Count with wrong length = %v, want 0", got)
	}
}

func TestNewProfileShortSequence(t *testing.T) {
	p := NewProfile(enc(t, "ab"), 3)
	if p.Len() != 0 {
		t.Fatalf("profile of too-short sequence should be empty, got %d grams", p.Len())
	}
}

func TestNewProfilePanicsOnBadQ(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("want panic on q=0")
		}
	}()
	NewProfile(nil, 0)
}

func TestCosineIdentical(t *testing.T) {
	p := NewProfile(enc(t, "abcabcabc"), 3)
	if got := Cosine(p, p); math.Abs(got-1) > 1e-12 {
		t.Fatalf("self-cosine = %v, want 1", got)
	}
}

func TestCosineOrthogonal(t *testing.T) {
	a := NewProfile(enc(t, "aaaa"), 2)
	b := NewProfile(enc(t, "bbbb"), 2)
	if got := Cosine(a, b); got != 0 {
		t.Fatalf("disjoint cosine = %v, want 0", got)
	}
}

func TestCosineKnownValue(t *testing.T) {
	// a: {ab:1, ba:1}; b: {ab:1}. cos = 1/√2.
	a := NewProfile(enc(t, "aba"), 2)
	b := NewProfile(enc(t, "ab"), 2)
	if got := Cosine(a, b); math.Abs(got-1/math.Sqrt2) > 1e-12 {
		t.Fatalf("cosine = %v, want 1/√2", got)
	}
}

func TestCosineMismatchedQ(t *testing.T) {
	a := NewProfile(enc(t, "abab"), 2)
	b := NewProfile(enc(t, "abab"), 3)
	if got := Cosine(a, b); got != 0 {
		t.Fatalf("mismatched-q cosine = %v, want 0", got)
	}
}

func TestCosineEmptyProfiles(t *testing.T) {
	a := NewProfile(nil, 2)
	b := NewProfile(enc(t, "abab"), 2)
	if got := Cosine(a, b); got != 0 {
		t.Fatalf("empty cosine = %v, want 0", got)
	}
}

func TestCosineRangeAndSymmetry(t *testing.T) {
	f := func(ra, rb []byte) bool {
		a := make([]seq.Symbol, len(ra)%50)
		for i := range a {
			a[i] = seq.Symbol(ra[i] % 4)
		}
		b := make([]seq.Symbol, len(rb)%50)
		for i := range b {
			b[i] = seq.Symbol(rb[i] % 4)
		}
		pa, pb := NewProfile(a, 3), NewProfile(b, 3)
		c1, c2 := Cosine(pa, pb), Cosine(pb, pa)
		return c1 == c2 && c1 >= 0 && c1 <= 1+1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQGramsLoseOrder(t *testing.T) {
	// The defining weakness the paper exploits: two sequences with the
	// same q-gram multiset but different arrangement are indistinguishable.
	a := NewProfile(enc(t, "abcabc"), 1)
	b := NewProfile(enc(t, "cbacba"), 1)
	if got := Cosine(a, b); math.Abs(got-1) > 1e-12 {
		t.Fatalf("1-gram cosine of permuted sequences = %v, want 1", got)
	}
}

func TestAdd(t *testing.T) {
	centroid := Empty(2)
	centroid.Add(NewProfile(enc(t, "abab"), 2))
	centroid.Add(NewProfile(enc(t, "abab"), 2))
	if got := centroid.Count(enc(t, "ab")); got != 4 {
		t.Fatalf("accumulated Count(ab) = %v, want 4", got)
	}
	// Cosine must see the maintained norm.
	single := NewProfile(enc(t, "abab"), 2)
	if got := Cosine(centroid, single); math.Abs(got-1) > 1e-12 {
		t.Fatalf("cosine after Add = %v, want 1 (same direction)", got)
	}
}

func TestAddPanicsOnMismatchedQ(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("want panic")
		}
	}()
	Empty(2).Add(NewProfile(enc(t, "abc"), 3))
}

func TestKeyIsCollisionFreeForWideSymbols(t *testing.T) {
	// Symbols above 255 must not collide with pairs of small symbols.
	rng := rand.New(rand.NewPCG(6, 6))
	a := []seq.Symbol{300, 1}
	b := []seq.Symbol{44, 257}
	pa := NewProfile(a, 2)
	if pa.Count(b) != 0 {
		t.Fatal("distinct wide-symbol q-grams collided")
	}
	// Random probes.
	for i := 0; i < 100; i++ {
		x := []seq.Symbol{seq.Symbol(rng.IntN(65535)), seq.Symbol(rng.IntN(65535))}
		y := []seq.Symbol{seq.Symbol(rng.IntN(65535)), seq.Symbol(rng.IntN(65535))}
		if x[0] == y[0] && x[1] == y[1] {
			continue
		}
		if key(x) == key(y) {
			t.Fatalf("key collision: %v vs %v", x, y)
		}
	}
}
