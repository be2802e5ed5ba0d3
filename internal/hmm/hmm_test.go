package hmm

import (
	"math"
	"math/rand/v2"
	"testing"

	"cluseq/internal/seq"
)

// handHMM is a tiny two-state model with easy closed-form likelihoods.
func handHMM() *HMM {
	return &HMM{
		N:  2,
		M:  2,
		Pi: []float64{0.6, 0.4},
		A:  [][]float64{{0.7, 0.3}, {0.4, 0.6}},
		B:  [][]float64{{0.9, 0.1}, {0.2, 0.8}},
	}
}

func TestValidate(t *testing.T) {
	h := handHMM()
	if err := h.Validate(); err != nil {
		t.Fatalf("valid model rejected: %v", err)
	}
	h.A[0][0] = 0.9 // row now sums to 1.2
	if err := h.Validate(); err == nil {
		t.Fatal("Validate should reject non-normalized row")
	}
	bad := &HMM{N: 2, M: 2, Pi: []float64{1}}
	if err := bad.Validate(); err == nil {
		t.Fatal("Validate should reject dimension mismatch")
	}
}

func TestNewRandomIsValid(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	h := NewRandom(5, 7, rng)
	if err := h.Validate(); err != nil {
		t.Fatalf("NewRandom produced invalid model: %v", err)
	}
}

func TestNewRandomPanicsOnBadDims(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("want panic")
		}
	}()
	NewRandom(0, 3, rand.New(rand.NewPCG(1, 1)))
}

// TestLogLikelihoodMatchesBruteForce enumerates all state paths for short
// observations and compares against the scaled forward pass.
func TestLogLikelihoodMatchesBruteForce(t *testing.T) {
	h := handHMM()
	brute := func(obs []seq.Symbol) float64 {
		T := len(obs)
		total := 0.0
		paths := 1
		for i := 0; i < T; i++ {
			paths *= h.N
		}
		for p := 0; p < paths; p++ {
			states := make([]int, T)
			x := p
			for i := 0; i < T; i++ {
				states[i] = x % h.N
				x /= h.N
			}
			prob := h.Pi[states[0]] * h.B[states[0]][obs[0]]
			for i := 1; i < T; i++ {
				prob *= h.A[states[i-1]][states[i]] * h.B[states[i]][obs[i]]
			}
			total += prob
		}
		return math.Log(total)
	}
	cases := [][]seq.Symbol{
		{0}, {1}, {0, 1}, {1, 1, 0}, {0, 0, 1, 1, 0}, {1, 0, 1, 0, 1, 0},
	}
	for _, obs := range cases {
		got := h.LogLikelihood(obs)
		want := brute(obs)
		if math.Abs(got-want) > 1e-9 {
			t.Errorf("obs %v: LogLikelihood = %v, brute force = %v", obs, got, want)
		}
	}
}

func TestLogLikelihoodEmpty(t *testing.T) {
	if got := handHMM().LogLikelihood(nil); got != 0 {
		t.Fatalf("empty LogLikelihood = %v, want 0", got)
	}
}

func TestLogLikelihoodNoUnderflow(t *testing.T) {
	// A 10,000-symbol sequence has probability far below float64 range;
	// scaling must keep the log finite.
	h := handHMM()
	rng := rand.New(rand.NewPCG(3, 4))
	obs := h.Sample(10000, rng)
	ll := h.LogLikelihood(obs)
	if math.IsInf(ll, 0) || math.IsNaN(ll) {
		t.Fatalf("LogLikelihood = %v, want finite", ll)
	}
	if ll >= 0 {
		t.Fatalf("LogLikelihood = %v, want negative", ll)
	}
}

func TestBaumWelchImprovesLikelihood(t *testing.T) {
	// EM must never decrease the training likelihood.
	rng := rand.New(rand.NewPCG(9, 9))
	gen := handHMM()
	var train [][]seq.Symbol
	for i := 0; i < 20; i++ {
		train = append(train, gen.Sample(80, rng))
	}
	h := NewRandom(2, 2, rng)
	var lls []float64
	for iter := 0; iter < 15; iter++ {
		lls = append(lls, h.baumWelchStep(train))
	}
	for i := 1; i < len(lls); i++ {
		// Allow a microscopic tolerance for the probability floors, which
		// perturb the exact EM update.
		if lls[i] < lls[i-1]-1e-6 {
			t.Fatalf("likelihood decreased at iter %d: %v -> %v", i, lls[i-1], lls[i])
		}
	}
	if lls[len(lls)-1] <= lls[0] {
		t.Fatalf("likelihood did not improve: %v -> %v", lls[0], lls[len(lls)-1])
	}
	if err := h.Validate(); err != nil {
		t.Fatalf("model invalid after training: %v", err)
	}
}

func TestBaumWelchRecoversPlantedStructure(t *testing.T) {
	// Train on data from a sharply-structured source and verify the
	// trained model assigns it far higher likelihood than a shuffled
	// control with the same symbol marginals.
	rng := rand.New(rand.NewPCG(42, 43))
	gen := &HMM{
		N:  2,
		M:  2,
		Pi: []float64{0.5, 0.5},
		A:  [][]float64{{0.05, 0.95}, {0.95, 0.05}}, // near-deterministic alternation
		B:  [][]float64{{0.95, 0.05}, {0.05, 0.95}},
	}
	var train [][]seq.Symbol
	for i := 0; i < 10; i++ {
		train = append(train, gen.Sample(200, rng))
	}
	// EM from a near-uniform start crosses a long plateau before the
	// structure emerges; train with tol=0 and keep the best of a few
	// random restarts, as any practical HMM harness does.
	var h *HMM
	bestLL := math.Inf(-1)
	for restart := 0; restart < 3; restart++ {
		cand := NewRandom(2, 2, rng)
		res := cand.BaumWelch(train, 200, 0)
		if res.LogLikelihood > bestLL {
			bestLL = res.LogLikelihood
			h = cand
		}
	}

	structured := gen.Sample(500, rng)
	shuffled := append([]seq.Symbol(nil), structured...)
	rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
	if h.LogLikelihood(structured) <= h.LogLikelihood(shuffled)+10 {
		t.Fatalf("trained model does not prefer structured data: %v vs %v",
			h.LogLikelihood(structured), h.LogLikelihood(shuffled))
	}
}

func TestBaumWelchConvergenceStops(t *testing.T) {
	rng := rand.New(rand.NewPCG(5, 5))
	gen := handHMM()
	train := [][]seq.Symbol{gen.Sample(100, rng), gen.Sample(100, rng)}
	h := NewRandom(2, 2, rng)
	res := h.BaumWelch(train, 200, 1e-3)
	if res.Iterations >= 200 {
		t.Fatalf("BaumWelch did not converge within 200 iterations")
	}
	if math.IsInf(res.LogLikelihood, 0) {
		t.Fatal("final log-likelihood not finite")
	}
}

func TestBaumWelchEmptyTraining(t *testing.T) {
	h := NewRandom(2, 2, rand.New(rand.NewPCG(1, 1)))
	res := h.BaumWelch(nil, 5, 1e-3)
	if !math.IsInf(res.LogLikelihood, -1) {
		t.Fatalf("training on nothing should report -Inf, got %v", res.LogLikelihood)
	}
	if err := h.Validate(); err != nil {
		t.Fatalf("model corrupted by empty training: %v", err)
	}
	// Empty sequences inside the set are skipped.
	res = h.BaumWelch([][]seq.Symbol{{}, {0, 1, 0}}, 3, 1e-3)
	if math.IsInf(res.LogLikelihood, -1) {
		t.Fatal("non-empty training sequence ignored")
	}
}

func TestSampleRespectsModel(t *testing.T) {
	// A model that always emits symbol 1 must sample only symbol 1.
	h := &HMM{
		N:  1,
		M:  2,
		Pi: []float64{1},
		A:  [][]float64{{1}},
		B:  [][]float64{{0, 1}},
	}
	out := h.Sample(50, rand.New(rand.NewPCG(2, 2)))
	for _, s := range out {
		if s != 1 {
			t.Fatalf("sampled %v from degenerate emitter", out)
		}
	}
}
