package fp

import "fp/internal/pool"

// forEach fans its closure out across indices, like engine.forEachWorker.
//
//cluseq:fanout
func forEach(n int, fn func(int)) {
	pool.New(4).Run(n, fn)
}

func good(xs []float64) []float64 {
	out := make([]float64, len(xs))
	pool.New(4).Run(len(xs), func(i int) {
		out[i] = xs[i] * 2 // fine: partitioned by the task index
	})
	return out
}

func derivedIndex(xs []float64, order []int) []float64 {
	out := make([]float64, len(xs))
	pool.New(4).Run(len(xs), func(i int) {
		j := order[i]
		out[j] = xs[j] // fine: j derives from the task index
	})
	return out
}

func locals(xs []float64) []float64 {
	out := make([]float64, len(xs))
	pool.New(4).Run(len(xs), func(i int) {
		acc := 0.0
		for _, v := range xs {
			acc += v // fine: acc is closure-local
		}
		out[i] = acc
	})
	return out
}

func capturedScalar(xs []float64) float64 {
	var total float64
	pool.New(4).Run(len(xs), func(i int) {
		total += xs[i] // want `closure passed to pool\.Run writes captured variable "total"`
	})
	return total
}

func capturedCounter(xs []float64) int {
	done := 0
	pool.New(4).Run(len(xs), func(i int) {
		done++ // want `closure passed to pool\.Run writes captured variable "done"`
	})
	return done
}

func fixedIndex(xs []float64) []float64 {
	out := make([]float64, len(xs))
	pool.New(4).Run(len(xs), func(i int) {
		out[0] = xs[i] // want `closure passed to pool\.Run writes "out" at an index that does not depend on the task index`
	})
	return out
}

func capturedMap(xs []float64) map[int]float64 {
	m := map[int]float64{}
	pool.New(4).Run(len(xs), func(i int) {
		m[i] = xs[i] // want `closure passed to pool\.Run writes a captured map`
	})
	return m
}

func viaFanout(xs []float64) float64 {
	var sum float64
	forEach(len(xs), func(i int) {
		sum += xs[i] // want `closure passed to forEach writes captured variable "sum"`
	})
	return sum
}

func fieldWrite(xs []float64) struct{ n int } {
	var s struct{ n int }
	pool.New(4).Run(len(xs), func(i int) {
		s.n = i // want `closure passed to pool\.Run writes captured variable "s"`
	})
	return s
}

func serialOK(xs []float64) float64 {
	var sum float64
	for i := range xs {
		sum += xs[i] // fine: a plain loop, not a fan-out
	}
	return sum
}

func waived(xs []float64) int {
	done := 0
	pool.New(4).Run(len(xs), func(i int) {
		done = 1 //cluseq:allow poolsafety: monotone flag; any winner writes the same value
	})
	return done
}
