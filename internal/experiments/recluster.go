package experiments

import (
	"time"

	"cluseq/internal/datagen"
)

// ReclusterBench measures the two-phase reclustering engine on the
// synthetic workload: similarity cache on/off × worker counts, with the
// per-run cache hit/miss totals. It seeds the repo's performance
// trajectory — cmd/experiments serializes it to BENCH_recluster.json so
// successive PRs can diff the numbers.
type ReclusterBench struct {
	Scale Scale
	Rows  []ReclusterBenchRow
}

// ReclusterBenchRow is one configuration's outcome.
type ReclusterBenchRow struct {
	Workers     int
	CacheOff    bool
	Iterations  int
	CacheHits   int
	CacheMisses int
	Accuracy    float64
	Elapsed     time.Duration
}

func (r *ReclusterBench) String() string { return render(r) }

// reclusterBenchWorkers lists the worker counts the benchmark crosses
// with the cache switch.
var reclusterBenchWorkers = []int{1, 4}

// RunReclusterBench runs the cache × workers grid. Every cell clusters
// the same database with the same seed, so memberships and thresholds
// are identical across the grid (asserted by the determinism and
// cache-correctness tests); only time and cache traffic may differ.
func RunReclusterBench(sc Scale, seed uint64) (*ReclusterBench, error) {
	db, err := datagen.SyntheticDB(syntheticConfig(sc, seed))
	if err != nil {
		return nil, err
	}
	out := &ReclusterBench{Scale: sc}
	for _, workers := range reclusterBenchWorkers {
		for _, cacheOff := range []bool{false, true} {
			cfg := cluseqConfig(sc, seed)
			cfg.Workers = workers
			cfg.CacheOff = cacheOff
			res, rep, elapsed, err := runCLUSEQ(db, cfg)
			if err != nil {
				return nil, err
			}
			row := ReclusterBenchRow{
				Workers:    workers,
				CacheOff:   cacheOff,
				Iterations: res.Iterations,
				Accuracy:   rep.Accuracy,
				Elapsed:    elapsed,
			}
			for _, tr := range res.Trace {
				row.CacheHits += tr.CacheHits
				row.CacheMisses += tr.CacheMisses
			}
			out.Rows = append(out.Rows, row)
		}
	}
	return out, nil
}
