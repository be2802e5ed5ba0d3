package suffixtree

import (
	"math/rand/v2"
	"strings"
	"testing"
	"testing/quick"

	"cluseq/internal/seq"
)

func encode(t *testing.T, a *seq.Alphabet, s string) []seq.Symbol {
	t.Helper()
	syms, err := a.Encode(s)
	if err != nil {
		t.Fatalf("encode %q: %v", s, err)
	}
	return syms
}

// bruteCount counts overlapping occurrences of p in s.
func bruteCount(s, p string) int {
	if p == "" || len(p) > len(s) {
		return 0
	}
	count := 0
	for i := 0; i+len(p) <= len(s); i++ {
		if s[i:i+len(p)] == p {
			count++
		}
	}
	return count
}

func TestContainsBasic(t *testing.T) {
	a := seq.MustAlphabet("ab")
	tr := New()
	tr.Add(encode(t, a, "abab"))
	for _, want := range []string{"a", "b", "ab", "ba", "aba", "bab", "abab"} {
		if !tr.Contains(encode(t, a, want)) {
			t.Errorf("Contains(%q) = false, want true", want)
		}
	}
	for _, absent := range []string{"aa", "bb", "baba", "ababa"} {
		if tr.Contains(encode(t, a, absent)) {
			t.Errorf("Contains(%q) = true, want false", absent)
		}
	}
	if !tr.Contains(nil) {
		t.Error("empty segment must always be contained")
	}
}

func TestCountBasic(t *testing.T) {
	a := seq.MustAlphabet("ab")
	tr := New()
	tr.Add(encode(t, a, "aaaa"))
	cases := map[string]int{"a": 4, "aa": 3, "aaa": 2, "aaaa": 1, "b": 0, "ab": 0}
	for p, want := range cases {
		if got := tr.Count(encode(t, a, p)); got != want {
			t.Errorf("Count(%q) = %d, want %d", p, got, want)
		}
	}
}

func TestGeneralizedCountAcrossSequences(t *testing.T) {
	a := seq.MustAlphabet("abc")
	tr := New()
	docs := []string{"abcabc", "cabc", "bbb"}
	for _, d := range docs {
		tr.Add(encode(t, a, d))
	}
	check := func(p string) {
		want := 0
		for _, d := range docs {
			want += bruteCount(d, p)
		}
		if got := tr.Count(encode(t, a, p)); got != want {
			t.Errorf("Count(%q) = %d, want %d", p, got, want)
		}
	}
	for _, p := range []string{"a", "b", "c", "ab", "bc", "abc", "cab", "bb", "bbb", "abcabc", "ccc"} {
		check(p)
	}
}

func TestMatchesNeverSpanSequences(t *testing.T) {
	a := seq.MustAlphabet("ab")
	tr := New()
	tr.Add(encode(t, a, "aa"))
	tr.Add(encode(t, a, "aa"))
	// "aaaa" exists only across the boundary; it must not be found.
	if tr.Contains(encode(t, a, "aaaa")) {
		t.Fatal("match spanned a sequence boundary")
	}
	if got := tr.Count(encode(t, a, "aa")); got != 2 {
		t.Fatalf("Count(aa) = %d, want 2", got)
	}
}

func TestAddAfterCountInvalidatesFinalize(t *testing.T) {
	a := seq.MustAlphabet("ab")
	tr := New()
	tr.Add(encode(t, a, "ab"))
	if got := tr.Count(encode(t, a, "ab")); got != 1 {
		t.Fatalf("Count = %d, want 1", got)
	}
	tr.Add(encode(t, a, "ab"))
	if got := tr.Count(encode(t, a, "ab")); got != 2 {
		t.Fatalf("Count after second Add = %d, want 2 (stale finalize?)", got)
	}
}

// TestCountMatchesBruteForce drives random texts and patterns through the
// tree and compares against the naive scan.
func TestCountMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 11))
	alphabets := []string{"ab", "abc", "abcd"}
	for trial := 0; trial < 60; trial++ {
		alpha := alphabets[trial%len(alphabets)]
		a := seq.MustAlphabet(alpha)
		n := 1 + rng.IntN(60)
		var sb strings.Builder
		for i := 0; i < n; i++ {
			sb.WriteByte(alpha[rng.IntN(len(alpha))])
		}
		text := sb.String()
		tr := New()
		tr.Add(encode(t, a, text))
		for q := 0; q < 30; q++ {
			plen := 1 + rng.IntN(6)
			var pb strings.Builder
			for i := 0; i < plen; i++ {
				pb.WriteByte(alpha[rng.IntN(len(alpha))])
			}
			p := pb.String()
			if got, want := tr.Count(encode(t, a, p)), bruteCount(text, p); got != want {
				t.Fatalf("text %q pattern %q: Count = %d, want %d", text, p, got, want)
			}
		}
		// Every substring must be contained.
		for q := 0; q < 10; q++ {
			i := rng.IntN(len(text))
			j := i + 1 + rng.IntN(len(text)-i)
			if !tr.Contains(encode(t, a, text[i:j])) {
				t.Fatalf("text %q: substring %q not found", text, text[i:j])
			}
		}
	}
}

// TestSuffixesAllPresent is the defining suffix tree property: every suffix
// of every added sequence is contained.
func TestSuffixesAllPresent(t *testing.T) {
	f := func(raw []byte) bool {
		if len(raw) == 0 {
			return true
		}
		if len(raw) > 200 {
			raw = raw[:200]
		}
		syms := make([]seq.Symbol, len(raw))
		for i, b := range raw {
			syms[i] = seq.Symbol(b % 4)
		}
		tr := New()
		tr.Add(syms)
		for i := range syms {
			if !tr.Contains(syms[i:]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestNumNodesLinear(t *testing.T) {
	// A suffix tree of a text of length n has at most 2n nodes (plus root
	// and terminator effects). Check the bound holds for a pathological
	// input.
	a := seq.MustAlphabet("ab")
	s := strings.Repeat("ab", 500)
	tr := New()
	tr.Add(encode(t, a, s))
	n := len(s) + 1 // including terminator
	if got := tr.NumNodes(); got > 2*n {
		t.Fatalf("NumNodes = %d, exceeds 2n = %d", got, 2*n)
	}
}

func TestEmptyTree(t *testing.T) {
	tr := New()
	if tr.Contains([]seq.Symbol{0}) {
		t.Fatal("empty tree should contain nothing")
	}
	if got := tr.Count([]seq.Symbol{0}); got != 0 {
		t.Fatalf("Count on empty tree = %d", got)
	}
	if tr.NumNodes() != 1 {
		t.Fatalf("empty tree NumNodes = %d, want 1 (root)", tr.NumNodes())
	}
}
