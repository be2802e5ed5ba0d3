// Package baseline implements the clustering algorithms behind the four
// models CLUSEQ is compared against in Table 2 of the paper: the edit
// distance (ED), the edit distance with block operations (EDBO), the
// hidden Markov model (HMM), and the q-gram approach. The paper does not
// fix the clustering procedure for the distance-based baselines, so this
// package provides the standard choices — k-medoids over a pairwise
// distance matrix, a likelihood-based HMM mixture, and spherical k-means
// over q-gram profiles.
package baseline

import (
	"fmt"
	"math"
	"math/rand/v2"
	"runtime"
	"sync"

	"cluseq/internal/hmm"
	"cluseq/internal/qgram"
	"cluseq/internal/seq"
)

// DistanceMatrix evaluates the symmetric pairwise distance d(i, j) for all
// 0 ≤ i < j < n in parallel and returns the full n×n matrix. workers ≤ 0
// uses GOMAXPROCS.
func DistanceMatrix(n int, d func(i, j int) float64, workers int) [][]float64 {
	m := make([][]float64, n)
	for i := range m {
		m[i] = make([]float64, n)
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	var wg sync.WaitGroup
	rows := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range rows {
				for j := i + 1; j < n; j++ {
					v := d(i, j)
					m[i][j] = v
					m[j][i] = v
				}
			}
		}()
	}
	for i := 0; i < n; i++ {
		rows <- i
	}
	close(rows)
	wg.Wait()
	return m
}

// KMedoids clusters n objects given their pairwise distances using Voronoi
// iteration: medoids seeded greedily (farthest-first), points assigned to
// the nearest medoid, and each medoid re-chosen as its cluster's minimizer
// of total intra-cluster distance, until stable or maxIter. Returns the
// assignment vector.
func KMedoids(dist [][]float64, k, maxIter int, rng *rand.Rand) ([]int, error) {
	n := len(dist)
	if k < 1 || k > n {
		return nil, fmt.Errorf("baseline: k=%d outside [1, %d]", k, n)
	}
	medoids := farthestFirst(dist, k, rng)
	assign := make([]int, n)
	for iter := 0; iter < maxIter; iter++ {
		changed := false
		// Assignment step.
		for i := 0; i < n; i++ {
			best, bestD := 0, math.Inf(1)
			for c, m := range medoids {
				if dist[i][m] < bestD {
					bestD = dist[i][m]
					best = c
				}
			}
			if assign[i] != best || iter == 0 {
				assign[i] = best
				changed = true
			}
		}
		// Update step: new medoid minimizes total distance to members.
		for c := range medoids {
			var members []int
			for i, a := range assign {
				if a == c {
					members = append(members, i)
				}
			}
			if len(members) == 0 {
				// Re-seed an empty cluster with the point farthest from
				// its current medoid.
				far, farD := medoids[c], -1.0
				for i := 0; i < n; i++ {
					if d := dist[i][medoids[assign[i]]]; d > farD {
						farD = d
						far = i
					}
				}
				medoids[c] = far
				continue
			}
			best, bestSum := medoids[c], math.Inf(1)
			for _, cand := range members {
				sum := 0.0
				for _, other := range members {
					sum += dist[cand][other]
				}
				if sum < bestSum {
					bestSum = sum
					best = cand
				}
			}
			if medoids[c] != best {
				medoids[c] = best
				changed = true
			}
		}
		if !changed {
			break
		}
	}
	return assign, nil
}

// farthestFirst seeds k medoids: a random first point, then repeatedly the
// point maximizing distance to its nearest chosen medoid.
func farthestFirst(dist [][]float64, k int, rng *rand.Rand) []int {
	n := len(dist)
	medoids := []int{rng.IntN(n)}
	minD := make([]float64, n)
	for i := range minD {
		minD[i] = dist[i][medoids[0]]
	}
	for len(medoids) < k {
		far, farD := 0, -1.0
		for i := 0; i < n; i++ {
			if minD[i] > farD {
				farD = minD[i]
				far = i
			}
		}
		medoids = append(medoids, far)
		for i := 0; i < n; i++ {
			if d := dist[i][far]; d < minD[i] {
				minD[i] = d
			}
		}
	}
	return medoids
}

// HMMClusters clusters the database with a mixture of k discrete HMMs:
// random initial partition, then alternating Baum-Welch re-estimation of
// each cluster's model and max-normalized-likelihood reassignment (the
// standard HMM clustering the paper's Table 2 evaluates, with the number
// of states per model as a parameter).
func HMMClusters(db *seq.Database, k, states, rounds, bwIters int, rng *rand.Rand) ([]int, error) {
	n := db.Len()
	if k < 1 || k > n {
		return nil, fmt.Errorf("baseline: k=%d outside [1, %d]", k, n)
	}
	assign := make([]int, n)
	for i := range assign {
		assign[i] = rng.IntN(k)
	}
	models := make([]*hmm.HMM, k)
	for c := range models {
		models[c] = hmm.NewRandom(states, db.Alphabet.Size(), rng)
	}
	for round := 0; round < rounds; round++ {
		// M-step: retrain each model on its members.
		for c := 0; c < k; c++ {
			var train [][]seq.Symbol
			for i, a := range assign {
				if a == c {
					train = append(train, db.Sequences[i].Symbols)
				}
			}
			if len(train) == 0 {
				models[c] = hmm.NewRandom(states, db.Alphabet.Size(), rng)
				continue
			}
			models[c].BaumWelch(train, bwIters, 1e-3)
		}
		// E-step: reassign by per-symbol log-likelihood, so sequence
		// length does not bias the choice.
		changed := false
		for i := 0; i < n; i++ {
			obs := db.Sequences[i].Symbols
			if len(obs) == 0 {
				continue
			}
			best, bestLL := assign[i], math.Inf(-1)
			for c := 0; c < k; c++ {
				ll := models[c].LogLikelihood(obs) / float64(len(obs))
				if ll > bestLL {
					bestLL = ll
					best = c
				}
			}
			if best != assign[i] {
				assign[i] = best
				changed = true
			}
		}
		if !changed && round > 0 {
			break
		}
	}
	return assign, nil
}

// QGramKMeans clusters the database with spherical k-means over q-gram
// profiles: centroids are summed member profiles and sequences join the
// centroid of maximal cosine similarity.
func QGramKMeans(db *seq.Database, k, q, maxIter int, rng *rand.Rand) ([]int, error) {
	n := db.Len()
	if k < 1 || k > n {
		return nil, fmt.Errorf("baseline: k=%d outside [1, %d]", k, n)
	}
	profiles := make([]*qgram.Profile, n)
	for i, s := range db.Sequences {
		profiles[i] = qgram.NewProfile(s.Symbols, q)
	}
	// Seed centroids from k distinct random sequences.
	perm := rng.Perm(n)
	centroids := make([]*qgram.Profile, k)
	for c := 0; c < k; c++ {
		centroids[c] = qgram.Empty(q)
		centroids[c].Add(profiles[perm[c]])
	}
	assign := make([]int, n)
	for i := range assign {
		assign[i] = -1
	}
	for iter := 0; iter < maxIter; iter++ {
		changed := false
		for i := 0; i < n; i++ {
			best, bestSim := 0, -1.0
			for c := 0; c < k; c++ {
				if sim := qgram.Cosine(profiles[i], centroids[c]); sim > bestSim {
					bestSim = sim
					best = c
				}
			}
			if assign[i] != best {
				assign[i] = best
				changed = true
			}
		}
		if !changed {
			break
		}
		for c := 0; c < k; c++ {
			centroids[c] = qgram.Empty(q)
			members := 0
			for i, a := range assign {
				if a == c {
					centroids[c].Add(profiles[i])
					members++
				}
			}
			if members == 0 {
				centroids[c].Add(profiles[rng.IntN(n)])
			}
		}
	}
	return assign, nil
}
