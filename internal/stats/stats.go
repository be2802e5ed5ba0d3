// Package stats holds the small numerical routines shared across the
// repository: the least-squares regression slope that the §4.6 valley
// detector's prefix-sum slopes (package histogram) are checked against,
// and the median the experiment harness reports.
package stats

import (
	"fmt"
	"sort"
)

// RegressionSlope returns the least-squares slope b of y = a + b·x over the
// paired samples. It returns 0 when fewer than two points are given or when
// all x values coincide (a vertical "line" carries no usable slope for the
// valley heuristic).
func RegressionSlope(xs, ys []float64) float64 {
	if len(xs) != len(ys) {
		panic(fmt.Sprintf("stats: mismatched regression inputs: %d vs %d", len(xs), len(ys)))
	}
	n := float64(len(xs))
	if n < 2 {
		return 0
	}
	var sx, sy, sxy, sxx float64
	for i := range xs {
		sx += xs[i]
		sy += ys[i]
		sxy += xs[i] * ys[i]
		sxx += xs[i] * xs[i]
	}
	denom := sxx - sx*sx/n
	if denom == 0 {
		return 0
	}
	return (sxy - sx*sy/n) / denom
}

// Median returns the median of xs, or 0 for an empty slice. The input is
// not modified.
func Median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	tmp := append([]float64(nil), xs...)
	sort.Float64s(tmp)
	n := len(tmp)
	if n%2 == 1 {
		return tmp[n/2]
	}
	return (tmp[n/2-1] + tmp[n/2]) / 2
}
