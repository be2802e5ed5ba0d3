package pst

import (
	"math"
	"math/rand/v2"
	"testing"
	"testing/quick"

	"cluseq/internal/seq"
	"cluseq/internal/suffixtree"
)

func encode(t *testing.T, a *seq.Alphabet, s string) []seq.Symbol {
	t.Helper()
	syms, err := a.Encode(s)
	if err != nil {
		t.Fatalf("encode %q: %v", s, err)
	}
	return syms
}

func TestConfigValidation(t *testing.T) {
	cases := []Config{
		{AlphabetSize: 0},
		{AlphabetSize: -1},
		{AlphabetSize: 2, MaxDepth: -3},
		{AlphabetSize: 2, Significance: -1},
		{AlphabetSize: 4, PMin: 0.25}, // n·PMin = 1
		{AlphabetSize: 4, PMin: -0.1},
		{AlphabetSize: 4, PMin: math.NaN()},
		{AlphabetSize: 4, Shrinkage: math.NaN()},
		{AlphabetSize: 4, Shrinkage: math.Inf(1)},
		{AlphabetSize: 4, Shrinkage: math.Inf(-1)},
		{AlphabetSize: 1000, MaxBytes: 100}, // budget below 4 nodes
	}
	for i, cfg := range cases {
		if _, err := New(cfg); err == nil {
			t.Errorf("case %d (%+v): New should fail", i, cfg)
		}
	}
	tr, err := New(Config{AlphabetSize: 2})
	if err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	if got := tr.Config(); got.MaxDepth != DefaultMaxDepth || got.Significance != DefaultSignificance {
		t.Fatalf("defaults not applied: %+v", got)
	}
	// A negative shrinkage means off, as saved trees may carry it.
	if _, err := New(Config{AlphabetSize: 2, Shrinkage: -1}); err != nil {
		t.Fatalf("negative shrinkage rejected: %v", err)
	}
}

func TestMustNewPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustNew should panic on invalid config")
		}
	}()
	MustNew(Config{})
}

func TestRootCountIsTotalSymbols(t *testing.T) {
	a := seq.MustAlphabet("ab")
	tr := MustNew(Config{AlphabetSize: 2, Significance: 1})
	tr.Insert(encode(t, a, "abba"))
	tr.Insert(encode(t, a, "ab"))
	// §3: the root count records the overall cluster size.
	if got := tr.Count(tr.Root()); got != 6 {
		t.Fatalf("root count = %d, want 6", got)
	}
	if tr.TotalSymbols() != 6 {
		t.Fatalf("TotalSymbols = %d, want 6", tr.TotalSymbols())
	}
}

func TestNodeCountsMatchOccurrences(t *testing.T) {
	// §3: each node's count must equal the number of occurrences of its
	// label. Cross-check every context of "abracadabra"-style data against
	// the exact generalized suffix tree.
	a := seq.MustAlphabet("abrcd")
	text := "abracadabraabracadabra"
	tr := MustNew(Config{AlphabetSize: 5, MaxDepth: 6, Significance: 1})
	st := suffixtree.New()
	tr.Insert(encode(t, a, text))
	st.Add(encode(t, a, text))

	checked := 0
	tr.Walk(func(x Slot) bool {
		if tr.Depth(x) == 0 {
			return true
		}
		label := tr.Label(x)
		if want := int64(st.Count(label)); tr.Count(x) != want {
			t.Errorf("context %q: count = %d, suffix tree says %d", a.Decode(label), tr.Count(x), want)
		}
		checked++
		return true
	})
	if checked < 20 {
		t.Fatalf("only %d nodes checked; tree too small", checked)
	}
}

func TestNextCountsMatchOccurrences(t *testing.T) {
	// next[s] must equal the occurrence count of label·s (§4.4:
	// P(s|σ') = C(σ's)/C(σ')).
	a := seq.MustAlphabet("abc")
	text := "abcabcaabbccabc"
	tr := MustNew(Config{AlphabetSize: 3, MaxDepth: 5, Significance: 1})
	st := suffixtree.New()
	tr.Insert(encode(t, a, text))
	st.Add(encode(t, a, text))

	tr.Walk(func(x Slot) bool {
		label := tr.Label(x)
		for s := seq.Symbol(0); s < 3; s++ {
			extended := append(append([]seq.Symbol{}, label...), s)
			if got, want := tr.NextCount(x, s), int64(st.Count(extended)); got != want {
				t.Errorf("context %q next %q: count = %d, suffix tree says %d", a.Decode(label), string(a.Rune(s)), got, want)
			}
		}
		return true
	})
}

func TestCountsMonotoneWithDepth(t *testing.T) {
	// An occurrence of a longer context contains one of every suffix
	// context, so counts must never increase from parent to child. The
	// pruning strategies rely on this invariant.
	f := func(raw []byte) bool {
		if len(raw) == 0 {
			return true
		}
		if len(raw) > 300 {
			raw = raw[:300]
		}
		tr := MustNew(Config{AlphabetSize: 3, MaxDepth: 6, Significance: 1})
		syms := make([]seq.Symbol, len(raw))
		for i, b := range raw {
			syms[i] = seq.Symbol(b % 3)
		}
		tr.Insert(syms)
		ok := true
		tr.Walk(func(x Slot) bool {
			_, slots := tr.kids(x)
			for _, c := range slots {
				if tr.Count(Slot(c)) > tr.Count(x) {
					ok = false
					return false
				}
			}
			return true
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestProbabilityVectorsSumCorrectly(t *testing.T) {
	// Σ_s next[s] ≤ Count, with the deficit exactly the number of
	// occurrences at segment ends.
	a := seq.MustAlphabet("ab")
	tr := MustNew(Config{AlphabetSize: 2, MaxDepth: 4, Significance: 1})
	tr.Insert(encode(t, a, "ababab"))
	tr.Walk(func(x Slot) bool {
		var sum int64
		for s := seq.Symbol(0); s < 2; s++ {
			sum += tr.NextCount(x, s)
		}
		if sum > tr.Count(x) {
			t.Errorf("context %q: next counts sum %d exceeds count %d", a.Decode(tr.Label(x)), sum, tr.Count(x))
		}
		return true
	})
	// The context "b" occurs 3 times, always followed by "a" except at the
	// end — wait, "ababab" ends in b, so b occurs 3 times, followed by a
	// twice.
	n := tr.Lookup(encode(t, a, "b"))
	if n == NoSlot || tr.Count(n) != 3 || tr.NextCount(n, 0) != 2 || tr.NextCount(n, 1) != 0 {
		t.Fatalf("context b: slot %d", n)
	}
}

func TestPredictionNodeLongestSignificantSuffix(t *testing.T) {
	// Build data where context "ba" is significant but "bba" is not, and
	// verify the §3 walk stops at "ba" when asked for "bba".
	a := seq.MustAlphabet("ab")
	tr := MustNew(Config{AlphabetSize: 2, MaxDepth: 5, Significance: 3})
	// "ba" appears 4 times; "bba" only once.
	tr.Insert(encode(t, a, "babababbab"))
	nBA := tr.Lookup(encode(t, a, "ba"))
	if nBA == NoSlot || !tr.Significant(nBA) {
		t.Fatalf("context ba should be significant: slot %d", nBA)
	}
	nBBA := tr.Lookup(encode(t, a, "bba"))
	if nBBA == NoSlot || tr.Significant(nBBA) {
		t.Fatalf("context bba should exist and be insignificant: slot %d", nBBA)
	}
	got := tr.PredictionNode(encode(t, a, "bba"))
	if got != nBA {
		t.Fatalf("PredictionNode(bba) = %q, want ba", a.Decode(tr.Label(got)))
	}
	// A fully significant context is its own prediction node (footnote 7).
	if got := tr.PredictionNode(encode(t, a, "ba")); got != nBA {
		t.Fatalf("PredictionNode(ba) = %q, want ba itself", a.Decode(tr.Label(got)))
	}
	// Unknown first symbol: falls back to the root.
	if got := tr.PredictionNode(nil); got != tr.Root() {
		t.Fatal("empty context must predict from the root")
	}
}

func TestPredictMatchesHandComputation(t *testing.T) {
	a := seq.MustAlphabet("ab")
	tr := MustNew(Config{AlphabetSize: 2, MaxDepth: 4, Significance: 1})
	tr.Insert(encode(t, a, "aabab"))
	// Context "a" occurs 3 times: positions 0,1,3; followed by a,b,b.
	if got := tr.Predict(encode(t, a, "a"), 1); math.Abs(got-2.0/3) > 1e-12 {
		t.Fatalf("P(b|a) = %v, want 2/3", got)
	}
	if got := tr.Predict(encode(t, a, "a"), 0); math.Abs(got-1.0/3) > 1e-12 {
		t.Fatalf("P(a|a) = %v, want 1/3", got)
	}
	// Unconditional: P(a) = 3/5 from the root.
	if got := tr.Predict(nil, 0); math.Abs(got-3.0/5) > 1e-12 {
		t.Fatalf("P(a) = %v, want 3/5", got)
	}
}

func TestAdjustedProbabilities(t *testing.T) {
	// §5.2: with PMin set, no probability is zero, and each entry is
	// (1 − n·p_min)·P + p_min.
	a := seq.MustAlphabet("ab")
	tr := MustNew(Config{AlphabetSize: 2, MaxDepth: 4, Significance: 1, PMin: 0.01})
	tr.Insert(encode(t, a, "aaaa"))
	got := tr.Predict(encode(t, a, "a"), 1) // b never follows a
	if math.Abs(got-0.01) > 1e-12 {
		t.Fatalf("adjusted P(b|a) = %v, want 0.01", got)
	}
	// Context "a" occurs 4 times (the last occurrence at the sequence end
	// has no successor), so the paper's C(aa)/C(a) = 3/4, adjusted to
	// 0.98·0.75 + 0.01.
	gotA := tr.Predict(encode(t, a, "a"), 0)
	if math.Abs(gotA-(0.98*0.75+0.01)) > 1e-12 {
		t.Fatalf("adjusted P(a|a) = %v, want 0.745", gotA)
	}
}

// TestPaperTable1 replays the worked similarity example of paper §4.3
// (Table 1): sequence bbaa against the Figure 1 tree, background
// p(a)=0.6, p(b)=0.4; the best segment is bba with similarity 2.10.
//
// Figure 1's full tree is not printable from the paper, so we reconstruct
// an equivalent tree that yields exactly the four conditional probabilities
// Table 1 lists: P(b|ε)=0.55, P(b|b)=0.418, P(a|bb)=0.87, P(a|baa… context
// bba→ba)=0.406.
func TestPaperTable1(t *testing.T) {
	a := seq.MustAlphabet("ab")
	tr := MustNew(Config{AlphabetSize: 2, MaxDepth: 3, Significance: 1})

	// Hand-wire the counts rather than inserting data: the test pins the
	// arithmetic of the DP, not the counting (covered elsewhere).
	root := tr.Root()
	tr.setCounts(root, 1000, 450, 550) // P(a) = 0.45, P(b) = 0.55

	nb := tr.ensureChild(root, 1) // context "b"
	// P(a|b), then P(b|b) = 0.41818… ≈ 0.418
	tr.setCounts(nb, 550, 320, 230)
	nbb := tr.ensureChild(nb, 1) // context "bb"
	// P(a|bb) = 0.8696 ≈ 0.87
	tr.setCounts(nbb, 230, 200, 30)

	// Context "ba" is reached root→a→b: child(child(root, 'a'), 'b').
	na := tr.ensureChild(root, 0) // context "a"
	tr.setCounts(na, 450, 250, 200)
	nBA := tr.ensureChild(na, 1) // context "ba"
	// P(a|ba) = 0.40625 ≈ 0.406, P(b|ba) = 0.59375 ≈ 0.594
	tr.setCounts(nBA, 320, 130, 190)

	background := []float64{0.6, 0.4}
	syms := encode(t, a, "bbaa")
	got := tr.Similarity(syms, background)

	// Reference values from Table 1 (X1..X4 = 1.38, 1.05, 1.45, 0.677;
	// running max 2.10 over segment bba).
	wantSim := (0.55 / 0.4) * (230.0 / 550 / 0.4) * (200.0 / 230 / 0.6)
	if math.Abs(got.Sim()-wantSim) > 1e-9 {
		t.Fatalf("SIM = %v, want %v", got.Sim(), wantSim)
	}
	if math.Abs(got.Sim()-2.10) > 0.02 {
		t.Fatalf("SIM = %v, want ≈ 2.10 (paper Table 1)", got.Sim())
	}
	if got.Start != 0 || got.End != 3 {
		t.Fatalf("best segment = [%d,%d), want [0,3) = bba", got.Start, got.End)
	}
}

func TestSimilarityMatchesBruteForce(t *testing.T) {
	// SIM must equal the max over all O(l²) segments of the plain
	// likelihood ratio, where each position's context extends to the
	// sequence start (the paper's X_i is segment-independent).
	rng := rand.New(rand.NewPCG(3, 9))
	for trial := 0; trial < 40; trial++ {
		tr := MustNew(Config{AlphabetSize: 3, MaxDepth: 4, Significance: 2, PMin: 0.005})
		train := make([]seq.Symbol, 60)
		for i := range train {
			train[i] = seq.Symbol(rng.IntN(3))
		}
		tr.Insert(train)

		probe := make([]seq.Symbol, 1+rng.IntN(20))
		for i := range probe {
			probe[i] = seq.Symbol(rng.IntN(3))
		}
		background := []float64{0.5, 0.3, 0.2}

		// Brute force: logX per position, then max over segments.
		logX := make([]float64, len(probe))
		for i, sym := range probe {
			lo := i - 4
			if lo < 0 {
				lo = 0
			}
			p := tr.Predict(probe[lo:i], sym)
			logX[i] = math.Log(p) - math.Log(background[sym])
		}
		want := math.Inf(-1)
		for i := 0; i < len(probe); i++ {
			sum := 0.0
			for j := i; j < len(probe); j++ {
				sum += logX[j]
				if sum > want {
					want = sum
				}
			}
		}
		got := tr.Similarity(probe, background)
		if math.Abs(got.LogSim-want) > 1e-9 {
			t.Fatalf("trial %d: LogSim = %v, brute force = %v (probe %v)", trial, got.LogSim, want, probe)
		}
		// The reported segment must reproduce the reported score.
		sum := 0.0
		for j := got.Start; j < got.End; j++ {
			sum += logX[j]
		}
		if math.Abs(sum-got.LogSim) > 1e-9 {
			t.Fatalf("trial %d: segment [%d,%d) scores %v, reported %v", trial, got.Start, got.End, sum, got.LogSim)
		}
	}
}

func TestSimilarityEmptyAndPanics(t *testing.T) {
	tr := MustNew(Config{AlphabetSize: 2})
	got := tr.Similarity(nil, []float64{0.5, 0.5})
	if !math.IsInf(got.LogSim, -1) {
		t.Fatalf("empty sequence LogSim = %v, want -Inf", got.LogSim)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("mismatched background length should panic")
		}
	}()
	tr.Similarity([]seq.Symbol{0}, []float64{1})
}

func TestSimilarityExceeds(t *testing.T) {
	s := Similarity{LogSim: math.Log(2)}
	if !s.Exceeds(1.5) || s.Exceeds(2.5) {
		t.Fatalf("Exceeds wrong around threshold: %+v", s)
	}
	if !s.Exceeds(0) {
		t.Fatal("non-positive thresholds are always exceeded")
	}
	// Overflow regime: LogSim representing sim ≈ e^1000.
	big := Similarity{LogSim: 1000}
	if !big.Exceeds(2) {
		t.Fatal("huge similarity must exceed small threshold")
	}
	if !math.IsInf(big.Sim(), 1) {
		t.Fatal("Sim should overflow to +Inf, which is why comparisons use logs")
	}
}

func TestLogLikelihoodRatioConsistentWithSimilarity(t *testing.T) {
	// SIM over the whole sequence is at least the full-sequence ratio.
	a := seq.MustAlphabet("ab")
	tr := MustNew(Config{AlphabetSize: 2, MaxDepth: 4, Significance: 1, PMin: 0.01})
	tr.Insert(encode(t, a, "abababab"))
	probe := encode(t, a, "ababab")
	bg := []float64{0.5, 0.5}
	full := tr.LogLikelihoodRatio(probe, bg)
	sim := tr.Similarity(probe, bg)
	if sim.LogSim < full-1e-9 {
		t.Fatalf("SIM %v < full-sequence ratio %v", sim.LogSim, full)
	}
}

func TestMaxDepthRespected(t *testing.T) {
	a := seq.MustAlphabet("ab")
	tr := MustNew(Config{AlphabetSize: 2, MaxDepth: 3, Significance: 1})
	tr.Insert(encode(t, a, "abababababab"))
	maxDepth := 0
	tr.Walk(func(x Slot) bool {
		maxDepth = max(maxDepth, tr.Depth(x))
		return true
	})
	if maxDepth != 3 {
		t.Fatalf("max node depth = %d, want 3", maxDepth)
	}
}

func TestInsertEmptySegment(t *testing.T) {
	tr := MustNew(Config{AlphabetSize: 2})
	tr.Insert(nil)
	if tr.Count(tr.Root()) != 0 || tr.NumNodes() != 1 {
		t.Fatal("inserting an empty segment must be a no-op")
	}
}

func TestLabelRoundTrip(t *testing.T) {
	a := seq.MustAlphabet("abcd")
	tr := MustNew(Config{AlphabetSize: 4, MaxDepth: 6, Significance: 1})
	tr.Insert(encode(t, a, "abcdabcd"))
	want := encode(t, a, "bcd")
	n := tr.Lookup(want)
	if n == NoSlot {
		t.Fatal("context bcd missing")
	}
	if got := a.Decode(tr.Label(n)); got != "bcd" {
		t.Fatalf("Label = %q, want bcd", got)
	}
	if tr.Depth(n) != 3 {
		t.Fatalf("Depth = %d, want 3", tr.Depth(n))
	}
}

func TestStats(t *testing.T) {
	a := seq.MustAlphabet("ab")
	tr := MustNew(Config{AlphabetSize: 2, MaxDepth: 3, Significance: 2})
	tr.Insert(encode(t, a, "ababab"))
	s := tr.Stats()
	if s.Nodes != tr.NumNodes() {
		t.Fatalf("Stats.Nodes = %d, want %d", s.Nodes, tr.NumNodes())
	}
	if s.MaxDepth != 3 {
		t.Fatalf("Stats.MaxDepth = %d, want 3", s.MaxDepth)
	}
	if s.SignificantNodes < 1 {
		t.Fatal("at least the root must be significant")
	}
	if s.TotalSymbols != 6 {
		t.Fatalf("Stats.TotalSymbols = %d, want 6", s.TotalSymbols)
	}
	if s.EstimatedBytes <= 0 {
		t.Fatal("EstimatedBytes must be positive")
	}
}

func TestDumpDoesNotPanic(t *testing.T) {
	a := seq.MustAlphabet("ab")
	tr := MustNew(Config{AlphabetSize: 2, MaxDepth: 2, Significance: 1})
	tr.Insert(encode(t, a, "ab"))
	if out := tr.Dump(a); len(out) == 0 {
		t.Fatal("Dump returned empty output")
	}
}
