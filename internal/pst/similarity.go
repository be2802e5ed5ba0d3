package pst

import (
	"fmt"
	"math"

	"cluseq/internal/seq"
)

// Similarity is the result of evaluating SIM_S(σ) (paper Equation 1): the
// maximum, over all contiguous segments of σ, of the likelihood ratio
// between the segment under the cluster's CPD and under the memoryless
// background.
type Similarity struct {
	// LogSim is ln SIM_S(σ). The similarity itself can overflow float64
	// for long well-matching sequences (a product of l per-symbol ratios),
	// so all internal comparisons are carried out in the log domain.
	LogSim float64
	// Start and End delimit the best-scoring segment σ[Start:End) — the
	// segment §4.2 inserts into the cluster's tree when the sequence
	// joins.
	Start, End int
}

// Sim returns the similarity in the linear domain. It may be +Inf when the
// log similarity exceeds float64 range; compare thresholds via LogSim or
// Exceeds instead when that matters.
func (s Similarity) Sim() float64 { return math.Exp(s.LogSim) }

// Exceeds reports whether the similarity is at least the threshold t
// (compared in the log domain, immune to overflow).
func (s Similarity) Exceeds(t float64) bool {
	if t <= 0 {
		return true
	}
	return s.LogSim >= math.Log(t)
}

// Similarity computes SIM via the §4.3 dynamic program in a single scan.
// background holds the memoryless symbol probabilities p(s) of the whole
// database (seq.Database.SymbolFrequencies); its length must equal the
// alphabet size. The slice must not be mutated after it is passed: the
// tree memoizes ln(background) keyed by the slice's address (see
// logBackground), so a distribution rewritten in place would keep
// scoring with the old logarithms. Pass a fresh slice instead.
//
// Per-position ratios X_i = P_S(s_i | s_1…s_{i−1})/p(s_i) use the
// prediction-node lookup of §3, so the effective context is the longest
// significant suffix of the (up to MaxDepth) preceding symbols. The
// recurrences
//
//	Y_i = max(Y_{i−1}·X_i, X_i)   Z_i = max(Z_{i−1}, Y_i)
//
// run in the log domain; a zero probability (possible only when PMin is
// zero) contributes −Inf and naturally restarts the running segment.
//
//cluseq:hotpath
func (t *Tree) Similarity(symbols []seq.Symbol, background []float64) Similarity {
	if len(background) != t.cfg.AlphabetSize {
		panic(fmt.Sprintf("pst: background distribution has %d entries, alphabet has %d", len(background), t.cfg.AlphabetSize)) //cluseq:allow hotpath: contract violation; dying loudly beats scoring garbage
	}
	if len(symbols) == 0 {
		return Similarity{LogSim: math.Inf(-1)}
	}
	L := t.cfg.MaxDepth
	logBg := t.logBackground(background)

	best := Similarity{LogSim: math.Inf(-1)}
	logY := math.Inf(-1)
	yStart := 0

	// Contexts are bounded by the short-memory depth L, so each
	// prediction-node walk costs O(L) and the whole scan O(l·L) — the
	// linear-time variant §4.3 alludes to, rather than its O(l²) worst
	// case for unbounded contexts.
	for i, sym := range symbols {
		lo := i - L
		if lo < 0 {
			lo = 0
		}
		p := t.adjust(t.estimate(symbols[lo:i], sym))
		var logX float64
		if p <= 0 {
			logX = math.Inf(-1)
		} else {
			logX = math.Log(p) - logBg[sym] //cluseq:allow hotpath: one Log per symbol is inherent to the tree-shaped scan; the compiled snapshot folds it into a table
		}

		if logY+logX >= logX { // extending beats restarting (logY >= 0)
			logY += logX
		} else {
			logY = logX
			yStart = i
		}
		if logY > best.LogSim {
			best.LogSim = logY
			best.Start = yStart
			best.End = i + 1
		}
	}
	return best
}

// logBgMemo is one immutable (source, ln(source)) pair. It is published
// through an atomic pointer and never mutated after publication, so
// readers take no lock.
type logBgMemo struct {
	src   []float64
	logBg []float64
}

// logBackground caches ln(background) between calls: the similarity scan
// is the hot loop of the whole clustering algorithm and the background
// distribution is shared across every call of a run. The memo is an
// atomic immutable publish rather than a mutex-guarded cache — every
// scoring worker of a run hits this path for every Similarity* call
// against the same frozen tree, and a per-tree mutex here measurably
// serialized the engine's parallel scoring phase. Concurrent misses may
// each compute the table once; ln is deterministic, so whichever
// publication wins is identical.
//
//cluseq:hotpath
func (t *Tree) logBackground(background []float64) []float64 {
	if m := t.logBg.Load(); m != nil && len(m.src) == len(background) && &m.src[0] == &background[0] {
		return m.logBg
	}
	return t.buildLogBg(background) //cluseq:allow hotpath: cold miss; builds and publishes the memo once per (tree, background) pair
}

// buildLogBg computes and publishes the ln(background) memo — the cold
// side of logBackground, kept out of the annotated hot path because it
// allocates by design.
func (t *Tree) buildLogBg(background []float64) []float64 {
	logBg := make([]float64, len(background))
	for i, v := range background {
		logBg[i] = math.Log(v)
	}
	t.logBg.Store(&logBgMemo{src: background, logBg: logBg})
	return logBg
}

// SimilaritySeq is Similarity applied to a seq.Sequence.
//
//cluseq:hotpath
func (t *Tree) SimilaritySeq(s *seq.Sequence, background []float64) Similarity {
	return t.Similarity(s.Symbols, background)
}

// LogLikelihoodRatio returns ln(P_S(σ)/P^r(σ)) for the entire sequence —
// the un-maximized similarity sim_S(σ) of §2, exposed for diagnostics and
// for tests that cross-check the DP.
func (t *Tree) LogLikelihoodRatio(symbols []seq.Symbol, background []float64) float64 {
	total := 0.0
	L := t.cfg.MaxDepth
	for i, sym := range symbols {
		lo := i - L
		if lo < 0 {
			lo = 0
		}
		p := t.adjust(t.estimate(symbols[lo:i], sym))
		if p <= 0 {
			return math.Inf(-1)
		}
		total += math.Log(p) - math.Log(background[sym])
	}
	return total
}
