// Package hmm implements discrete hidden Markov models — the HMM baseline
// of the paper's Table 2 comparison (the paper trains one 30-state HMM and
// clusters by likelihood; footnote 3 also names HMMs as the expensive
// alternative to the probabilistic suffix tree).
//
// The implementation uses per-step scaling (Rabiner's ĉ_t normalization)
// throughout, so likelihoods of sequences thousands of symbols long are
// computed without underflow, and supports multi-sequence Baum-Welch
// re-estimation with probability floors to keep parameters strictly
// positive.
package hmm

import (
	"fmt"
	"math"
	"math/rand/v2"

	"cluseq/internal/seq"
)

// floor keeps every probability strictly positive through re-estimation;
// without it a symbol unseen in training would zero out whole sequences.
const floor = 1e-6

// HMM is a discrete hidden Markov model with N states and M symbols.
type HMM struct {
	N  int         // number of hidden states
	M  int         // alphabet size
	Pi []float64   // initial state distribution, length N
	A  [][]float64 // transition probabilities, N×N
	B  [][]float64 // emission probabilities, N×M
}

// NewRandom returns an HMM with randomly perturbed near-uniform parameters.
// Random asymmetry is required: exactly uniform parameters are a saddle
// point of Baum-Welch from which re-estimation cannot escape.
func NewRandom(n, m int, rng *rand.Rand) *HMM {
	if n < 1 || m < 1 {
		panic(fmt.Sprintf("hmm: invalid dimensions N=%d M=%d", n, m))
	}
	h := &HMM{N: n, M: m}
	h.Pi = randDist(n, rng)
	h.A = make([][]float64, n)
	h.B = make([][]float64, n)
	for i := 0; i < n; i++ {
		h.A[i] = randDist(n, rng)
		h.B[i] = randDist(m, rng)
	}
	return h
}

func randDist(n int, rng *rand.Rand) []float64 {
	d := make([]float64, n)
	sum := 0.0
	for i := range d {
		d[i] = 1 + 0.2*rng.Float64()
		sum += d[i]
	}
	for i := range d {
		d[i] /= sum
	}
	return d
}

// Validate checks that all parameter rows are proper distributions.
func (h *HMM) Validate() error {
	check := func(name string, d []float64) error {
		sum := 0.0
		for _, v := range d {
			if v < 0 || math.IsNaN(v) {
				return fmt.Errorf("hmm: %s has invalid entry %v", name, v)
			}
			sum += v
		}
		if math.Abs(sum-1) > 1e-6 {
			return fmt.Errorf("hmm: %s sums to %v, want 1", name, sum)
		}
		return nil
	}
	if len(h.Pi) != h.N || len(h.A) != h.N || len(h.B) != h.N {
		return fmt.Errorf("hmm: dimension mismatch")
	}
	if err := check("Pi", h.Pi); err != nil {
		return err
	}
	for i := range h.A {
		if len(h.A[i]) != h.N || len(h.B[i]) != h.M {
			return fmt.Errorf("hmm: row %d dimension mismatch", i)
		}
		if err := check(fmt.Sprintf("A[%d]", i), h.A[i]); err != nil {
			return err
		}
		if err := check(fmt.Sprintf("B[%d]", i), h.B[i]); err != nil {
			return err
		}
	}
	return nil
}

// forwardScaled fills alpha (T×N, scaled rows) and returns the scale
// factors c_t. The log-likelihood is −Σ log c_t.
func (h *HMM) forwardScaled(obs []seq.Symbol, alpha [][]float64) []float64 {
	T := len(obs)
	c := make([]float64, T)
	// t = 0
	sum := 0.0
	for i := 0; i < h.N; i++ {
		alpha[0][i] = h.Pi[i] * h.B[i][obs[0]]
		sum += alpha[0][i]
	}
	c[0] = scale(alpha[0], sum)
	for t := 1; t < T; t++ {
		sum = 0.0
		for j := 0; j < h.N; j++ {
			a := 0.0
			for i := 0; i < h.N; i++ {
				a += alpha[t-1][i] * h.A[i][j]
			}
			alpha[t][j] = a * h.B[j][obs[t]]
			sum += alpha[t][j]
		}
		c[t] = scale(alpha[t], sum)
	}
	return c
}

// scale normalizes row to sum 1 and returns the 1/sum factor used; a zero
// row (possible only with zero parameters) becomes uniform with a huge
// factor so likelihood collapses rather than NaNs.
func scale(row []float64, sum float64) float64 {
	if sum <= 0 {
		u := 1 / float64(len(row))
		for i := range row {
			row[i] = u
		}
		return 1e300
	}
	inv := 1 / sum
	for i := range row {
		row[i] *= inv
	}
	return inv
}

// LogLikelihood returns ln P(obs | h) via the scaled forward pass.
// The empty sequence has probability 1.
func (h *HMM) LogLikelihood(obs []seq.Symbol) float64 {
	if len(obs) == 0 {
		return 0
	}
	alpha := newMatrix(len(obs), h.N)
	c := h.forwardScaled(obs, alpha)
	ll := 0.0
	for _, ct := range c {
		ll -= math.Log(ct)
	}
	return ll
}

func newMatrix(r, c int) [][]float64 {
	backing := make([]float64, r*c)
	m := make([][]float64, r)
	for i := range m {
		m[i] = backing[i*c : (i+1)*c]
	}
	return m
}

// TrainResult reports a Baum-Welch run.
type TrainResult struct {
	Iterations    int
	LogLikelihood float64 // total over the training set, final iteration
}

// BaumWelch re-estimates the model from the training sequences, iterating
// until the total log-likelihood improves by less than tol or maxIter is
// reached. Empty sequences are ignored.
func (h *HMM) BaumWelch(train [][]seq.Symbol, maxIter int, tol float64) TrainResult {
	prev := math.Inf(-1)
	res := TrainResult{}
	for iter := 0; iter < maxIter; iter++ {
		ll := h.baumWelchStep(train)
		res.Iterations = iter + 1
		res.LogLikelihood = ll
		if ll-prev < tol && iter > 0 {
			break
		}
		prev = ll
	}
	return res
}

// baumWelchStep performs one EM step over all sequences and returns the
// total log-likelihood of the training set under the model *before* the
// update.
func (h *HMM) baumWelchStep(train [][]seq.Symbol) float64 {
	piNum := make([]float64, h.N)
	aNum := newMatrix(h.N, h.N)
	aDen := make([]float64, h.N)
	bNum := newMatrix(h.N, h.M)
	bDen := make([]float64, h.N)
	total := 0.0
	used := 0

	for _, obs := range train {
		T := len(obs)
		if T == 0 {
			continue
		}
		used++
		alpha := newMatrix(T, h.N)
		c := h.forwardScaled(obs, alpha)
		for _, ct := range c {
			total -= math.Log(ct)
		}
		// Scaled backward pass with the same factors.
		beta := newMatrix(T, h.N)
		for i := 0; i < h.N; i++ {
			beta[T-1][i] = c[T-1]
		}
		for t := T - 2; t >= 0; t-- {
			for i := 0; i < h.N; i++ {
				s := 0.0
				for j := 0; j < h.N; j++ {
					s += h.A[i][j] * h.B[j][obs[t+1]] * beta[t+1][j]
				}
				beta[t][i] = s * c[t]
			}
		}
		// Accumulate gamma and xi statistics. With this scaling,
		// gamma_t(i) = alpha_t(i)·beta_t(i)/c_t and
		// xi_t(i,j) = alpha_t(i)·A[i][j]·B[j][o_{t+1}]·beta_{t+1}(j).
		for t := 0; t < T; t++ {
			for i := 0; i < h.N; i++ {
				g := alpha[t][i] * beta[t][i] / c[t]
				if t == 0 {
					piNum[i] += g
				}
				bNum[i][obs[t]] += g
				bDen[i] += g
				if t < T-1 {
					aDen[i] += g
				}
			}
		}
		for t := 0; t < T-1; t++ {
			for i := 0; i < h.N; i++ {
				ai := alpha[t][i]
				if ai == 0 {
					continue
				}
				for j := 0; j < h.N; j++ {
					aNum[i][j] += ai * h.A[i][j] * h.B[j][obs[t+1]] * beta[t+1][j]
				}
			}
		}
	}
	if used == 0 {
		return math.Inf(-1)
	}
	// Re-estimate with floors.
	for i := 0; i < h.N; i++ {
		h.Pi[i] = piNum[i]/float64(used) + floor
	}
	normalize(h.Pi)
	for i := 0; i < h.N; i++ {
		for j := 0; j < h.N; j++ {
			if aDen[i] > 0 {
				h.A[i][j] = aNum[i][j]/aDen[i] + floor
			} else {
				h.A[i][j] = 1 / float64(h.N)
			}
		}
		normalize(h.A[i])
		for k := 0; k < h.M; k++ {
			if bDen[i] > 0 {
				h.B[i][k] = bNum[i][k]/bDen[i] + floor
			} else {
				h.B[i][k] = 1 / float64(h.M)
			}
		}
		normalize(h.B[i])
	}
	return total
}

func normalize(d []float64) {
	sum := 0.0
	for _, v := range d {
		sum += v
	}
	if sum <= 0 {
		u := 1 / float64(len(d))
		for i := range d {
			d[i] = u
		}
		return
	}
	for i := range d {
		d[i] /= sum
	}
}

// Sample generates a sequence of the given length from the model — used by
// tests that verify Baum-Welch can recover a planted model, and available
// to synthetic workload generators.
func (h *HMM) Sample(length int, rng *rand.Rand) []seq.Symbol {
	out := make([]seq.Symbol, length)
	state := sampleDist(h.Pi, rng)
	for t := 0; t < length; t++ {
		out[t] = seq.Symbol(sampleDist(h.B[state], rng))
		state = sampleDist(h.A[state], rng)
	}
	return out
}

func sampleDist(d []float64, rng *rand.Rand) int {
	r := rng.Float64()
	acc := 0.0
	for i, p := range d {
		acc += p
		if r < acc {
			return i
		}
	}
	return len(d) - 1
}
