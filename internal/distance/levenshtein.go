// Package distance implements the sequence distance functions CLUSEQ is
// compared against in the paper's evaluation (§6.1, Table 2): the classic
// edit distance (ED) and an edit distance with block operations (EDBO).
//
// The paper's introduction motivates CLUSEQ with the weakness of the edit
// distance — aaaabbb and bbbaaaa are as far apart as aaaabbb and abcdefg
// under ED even though the former pair shares two large blocks; the block
// variant repairs this but exact computation is NP-hard [21], so EDBO here
// is the customary greedy block-tiling approximation.
package distance

import (
	"cluseq/internal/seq"
)

// Levenshtein returns the classic unit-cost edit distance between a and b,
// using the two-row dynamic program (O(len(a)·len(b)) time, O(min) space).
func Levenshtein(a, b []seq.Symbol) int {
	if len(a) < len(b) {
		a, b = b, a
	}
	// b is the shorter sequence now; rows have len(b)+1 entries.
	if len(b) == 0 {
		return len(a)
	}
	prev := make([]int, len(b)+1)
	cur := make([]int, len(b)+1)
	for j := range prev {
		prev[j] = j
	}
	for i := 1; i <= len(a); i++ {
		cur[0] = i
		ai := a[i-1]
		for j := 1; j <= len(b); j++ {
			cost := 1
			if ai == b[j-1] {
				cost = 0
			}
			m := prev[j-1] + cost        // substitute / match
			if d := prev[j] + 1; d < m { // delete
				m = d
			}
			if d := cur[j-1] + 1; d < m { // insert
				m = d
			}
			cur[j] = m
		}
		prev, cur = cur, prev
	}
	return prev[len(b)]
}

// NormalizedLevenshtein returns Levenshtein(a, b) scaled into [0, 1] by the
// longer length, with two empty sequences at distance 0.
func NormalizedLevenshtein(a, b []seq.Symbol) float64 {
	n := maxInt(len(a), len(b))
	if n == 0 {
		return 0
	}
	return float64(Levenshtein(a, b)) / float64(n)
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
