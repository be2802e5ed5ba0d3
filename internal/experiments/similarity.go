package experiments

import (
	"math/rand/v2"
	"runtime"
	"time"

	"cluseq/internal/pst"
	"cluseq/internal/seq"
)

// SimilarityBench measures the §4.3 similarity scan head-to-head: the
// pointer-walking Tree.Similarity — the oracle and the stale-tree
// fallback — against the compiled pst.Snapshot, across alphabet sizes
// and probe lengths.
// cmd/experiments serializes it to BENCH_similarity.json so successive
// PRs can diff the hot loop's cost directly, without the clustering
// dynamics around it.
type SimilarityBench struct {
	Scale Scale
	Rows  []SimilarityBenchRow
}

// SimilarityBenchRow is one (alphabet, length) cell: per-scan wall time
// through each implementation, their ratio, and the snapshot path's
// memory behaviour — heap allocations per scan (the arena layout's
// target is 0) and the compiled arena's resident size.
type SimilarityBenchRow struct {
	AlphabetSize    int
	SeqLen          int
	TreeNodes       int
	TreePerScan     time.Duration
	SnapshotPerScan time.Duration
	Speedup         float64
	// AllocsPerScan counts heap allocations per snapshot scan (mallocs
	// observed across the timed loop divided by scans).
	AllocsPerScan float64
	// SnapshotBytes is the compiled snapshot's arena size — the resident
	// bytes the scan touches, and exactly the bytes a v3 bundle stores.
	SnapshotBytes int
}

func (s *SimilarityBench) String() string { return render(s) }

// similarityBenchGrid lists the (alphabet, probe length) cells.
var similarityBenchGrid = []struct{ alpha, seqLen int }{
	{10, 100},
	{10, 500},
	{50, 200},
	{50, 1000},
	{100, 500},
	{200, 500},
	{200, 1000},
}

// RunSimilarityBench times both scan implementations on identical
// trees and probes. Scale controls only the repetition count (how long
// each cell is timed), not the workload shape, so rows are comparable
// across scales.
func RunSimilarityBench(sc Scale, seed uint64) (*SimilarityBench, error) {
	reps := 20
	switch sc {
	case ScaleSmall:
		reps = 200
	case ScalePaper:
		reps = 2000
	}
	out := &SimilarityBench{Scale: sc}
	for _, cell := range similarityBenchGrid {
		rng := rand.New(rand.NewPCG(seed, uint64(cell.alpha*1000+cell.seqLen)))
		tree := pst.MustNew(pst.Config{
			AlphabetSize: cell.alpha,
			MaxDepth:     6,
			Significance: 10,
			PMin:         0.25 / float64(cell.alpha),
		})
		for i := 0; i < 40; i++ {
			tree.Insert(randomSymbols(rng, cell.seqLen, cell.alpha))
		}
		probes := make([][]seq.Symbol, 16)
		for i := range probes {
			probes[i] = randomSymbols(rng, cell.seqLen, cell.alpha)
		}
		bg := make([]float64, cell.alpha)
		for i := range bg {
			bg[i] = 1 / float64(cell.alpha)
		}
		snap := tree.CompileSnapshot(bg)

		// Warm both paths once (ln(background) memo, caches), then time.
		for _, p := range probes {
			if tree.Similarity(p, bg) != snap.Similarity(p) {
				panic("experiments: snapshot disagrees with tree scan") // contract violation
			}
		}
		start := time.Now()
		for r := 0; r < reps; r++ {
			for _, p := range probes {
				tree.Similarity(p, bg)
			}
		}
		treeTotal := time.Since(start)
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		start = time.Now()
		for r := 0; r < reps; r++ {
			for _, p := range probes {
				snap.Similarity(p)
			}
		}
		snapTotal := time.Since(start)
		runtime.ReadMemStats(&m1)

		scans := reps * len(probes)
		row := SimilarityBenchRow{
			AlphabetSize:    cell.alpha,
			SeqLen:          cell.seqLen,
			TreeNodes:       tree.NumNodes(),
			TreePerScan:     treeTotal / time.Duration(scans),
			SnapshotPerScan: snapTotal / time.Duration(scans),
			AllocsPerScan:   float64(m1.Mallocs-m0.Mallocs) / float64(scans),
			SnapshotBytes:   snap.ArenaBytes(),
		}
		if snapTotal > 0 {
			row.Speedup = float64(treeTotal) / float64(snapTotal)
		}
		out.Rows = append(out.Rows, row)
	}
	return out, nil
}

// randomSymbols draws length symbols uniformly from [0, alpha).
func randomSymbols(rng *rand.Rand, length, alpha int) []seq.Symbol {
	out := make([]seq.Symbol, length)
	for i := range out {
		out[i] = seq.Symbol(rng.IntN(alpha))
	}
	return out
}
