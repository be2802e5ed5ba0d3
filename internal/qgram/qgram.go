// Package qgram implements the q-gram baseline of the paper's Table 2
// comparison: each sequence is reduced to the multiset of its length-q
// segments (generated by a sliding window) and sequences are compared by
// the normalized dot-product (cosine) of their q-gram count vectors —
// fast, but blind to the ordering and correlation between the q-grams,
// which is exactly the weakness CLUSEQ addresses.
package qgram

import (
	"fmt"
	"math"

	"cluseq/internal/seq"
)

// Profile is the sparse q-gram count vector of one sequence. Keys encode
// q consecutive symbols; values are occurrence counts.
type Profile struct {
	Q      int
	counts map[string]float64
	norm   float64 // Euclidean norm, recomputed after every mutation
}

// key packs q symbols into a compact string key (two bytes per symbol, so
// alphabets up to 65536 symbols and any q are supported).
func key(window []seq.Symbol) string {
	b := make([]byte, 2*len(window))
	for i, s := range window {
		b[2*i] = byte(s >> 8)
		b[2*i+1] = byte(s)
	}
	return string(b)
}

// NewProfile extracts the q-gram profile of the symbols. Sequences shorter
// than q produce an empty profile. q must be positive.
func NewProfile(symbols []seq.Symbol, q int) *Profile {
	if q < 1 {
		panic(fmt.Sprintf("qgram: q must be positive, got %d", q))
	}
	p := &Profile{Q: q, counts: make(map[string]float64)}
	for i := 0; i+q <= len(symbols); i++ {
		p.counts[key(symbols[i:i+q])]++
	}
	p.recomputeNorm()
	return p
}

func (p *Profile) recomputeNorm() {
	sum := 0.0
	for _, v := range p.counts {
		sum += v * v
	}
	p.norm = math.Sqrt(sum)
}

// Len returns the number of distinct q-grams in the profile.
func (p *Profile) Len() int { return len(p.counts) }

// Count returns the occurrence count of the given q-gram.
func (p *Profile) Count(window []seq.Symbol) float64 {
	if len(window) != p.Q {
		return 0
	}
	return p.counts[key(window)]
}

// Cosine returns the normalized dot-product between two profiles, in
// [0, 1]. Profiles with different q, or empty profiles, have similarity 0.
func Cosine(a, b *Profile) float64 {
	if a.Q != b.Q || a.norm == 0 || b.norm == 0 {
		return 0
	}
	// Iterate the smaller map.
	small, large := a, b
	if len(small.counts) > len(large.counts) {
		small, large = large, small
	}
	dot := 0.0
	for k, v := range small.counts {
		dot += v * large.counts[k]
	}
	return dot / (a.norm * b.norm)
}

// Add accumulates another profile into p (used to maintain cluster
// centroids in spherical k-means). Panics on mismatched q.
func (p *Profile) Add(other *Profile) {
	if p.Q != other.Q {
		panic(fmt.Sprintf("qgram: cannot add q=%d profile into q=%d profile", other.Q, p.Q))
	}
	for k, v := range other.counts {
		p.counts[k] += v
	}
	p.recomputeNorm()
}

// Empty returns an empty profile with the given q, for centroid
// accumulation.
func Empty(q int) *Profile {
	if q < 1 {
		panic(fmt.Sprintf("qgram: q must be positive, got %d", q))
	}
	return &Profile{Q: q, counts: make(map[string]float64)}
}
