package experiments

import (
	"fmt"
	"time"

	"cluseq/internal/datagen"
	"cluseq/internal/obs"
	"cluseq/internal/stats"
)

// ReclusterBench measures the reclustering engine on the synthetic
// workload: similarity cache on/off × worker counts, with the per-run
// cache hit/miss totals and the time spent in each §4 phase. It seeds
// the repo's performance trajectory — cmd/experiments serializes it to
// BENCH_recluster.json so successive PRs can diff the numbers.
type ReclusterBench struct {
	Scale Scale
	Host  Host
	// Runs is how many times each cell was clustered; every time in a
	// row is the median over those runs.
	Runs int
	Rows []ReclusterBenchRow
}

// ReclusterBenchRow is one configuration's outcome. Iterations, the
// cache counters and Accuracy are the same in every run of a cell.
// Elapsed is the median wall time of one core.Cluster call; the phase
// times are the medians of the engine's cluseq_engine_phase_seconds
// series (generate, score, apply, consolidate, threshold), and
// Unattributed is the median of Elapsed minus their sum: set-up,
// per-iteration bookkeeping and the final primary assignment.
type ReclusterBenchRow struct {
	Workers      int
	CacheOff     bool
	Iterations   int
	CacheHits    int
	CacheMisses  int
	Accuracy     float64
	Elapsed      time.Duration
	Generate     time.Duration
	Score        time.Duration
	Apply        time.Duration
	Consolidate  time.Duration
	Threshold    time.Duration
	Unattributed time.Duration
}

func (r *ReclusterBench) String() string { return render(r) }

// reclusterBenchWorkers lists the worker counts the benchmark crosses
// with the cache switch.
var reclusterBenchWorkers = []int{1, 4}

// reclusterBenchRuns is how many times RunReclusterBench clusters each
// cell.
const reclusterBenchRuns = 5

// reclusterPhases are the engine phases a row breaks its time into, in
// row order.
var reclusterPhases = []string{"generate", "score", "apply", "consolidate", "threshold"}

// RunReclusterBench runs the cache × workers grid. Every cell clusters
// the same database with the same seed, so memberships and thresholds
// are identical across the grid (asserted by the determinism and
// cache-correctness tests); only time and cache traffic may differ.
func RunReclusterBench(sc Scale, seed uint64) (*ReclusterBench, error) {
	return runReclusterBench(sc, seed, reclusterBenchRuns)
}

func runReclusterBench(sc Scale, seed uint64, runs int) (*ReclusterBench, error) {
	db, err := datagen.SyntheticDB(syntheticConfig(sc, seed))
	if err != nil {
		return nil, err
	}
	out := &ReclusterBench{Scale: sc, Host: hostInfo(), Runs: runs}
	type cell struct {
		workers  int
		cacheOff bool
	}
	var cells []cell
	for _, workers := range reclusterBenchWorkers {
		for _, cacheOff := range []bool{false, true} {
			cells = append(cells, cell{workers, cacheOff})
		}
	}
	// samples[c][0] holds cell c's wall times in seconds, samples[c][1+p]
	// its phase p times, and the last slot its unattributed times.
	samples := make([][][]float64, len(cells))
	for c := range samples {
		samples[c] = make([][]float64, len(reclusterPhases)+2)
	}
	out.Rows = make([]ReclusterBenchRow, len(cells))
	// Runs sweep the whole grid in turn, so a stretch of host noise
	// spreads over every cell instead of skewing one.
	for run := 0; run < runs; run++ {
		for c, ce := range cells {
			cfg := cluseqConfig(sc, seed)
			cfg.Workers = ce.workers
			cfg.CacheOff = ce.cacheOff
			reg := obs.NewRegistry()
			cfg.Obs = reg
			res, rep, elapsed, err := runCLUSEQ(db, cfg)
			if err != nil {
				return nil, err
			}
			row := ReclusterBenchRow{
				Workers:    ce.workers,
				CacheOff:   ce.cacheOff,
				Iterations: res.Iterations,
				Accuracy:   rep.Accuracy,
			}
			for _, tr := range res.Trace {
				row.CacheHits += tr.CacheHits
				row.CacheMisses += tr.CacheMisses
			}
			if run == 0 {
				out.Rows[c] = row
			} else if row != out.Rows[c] {
				return nil, fmt.Errorf("recluster bench: workers=%d cache-off=%v: run %d gave %+v, run 0 gave %+v",
					ce.workers, ce.cacheOff, run, row, out.Rows[c])
			}
			// The engine owns the phase series; read their sums from a
			// snapshot rather than registering the name a second time.
			phaseSum := map[string]float64{}
			for _, m := range reg.Snapshot() {
				if m.Name == "cluseq_engine_phase_seconds" {
					phaseSum[m.Label("phase")] = m.Sum
				}
			}
			s := samples[c]
			s[0] = append(s[0], elapsed.Seconds())
			attributed := 0.0
			for p, phase := range reclusterPhases {
				s[1+p] = append(s[1+p], phaseSum[phase])
				attributed += phaseSum[phase]
			}
			s[len(s)-1] = append(s[len(s)-1], elapsed.Seconds()-attributed)
		}
	}
	for c := range out.Rows {
		r := &out.Rows[c]
		times := []*time.Duration{&r.Elapsed, &r.Generate, &r.Score, &r.Apply, &r.Consolidate, &r.Threshold, &r.Unattributed}
		for i, d := range times {
			*d = time.Duration(stats.Median(samples[c][i]) * float64(time.Second))
		}
	}
	return out, nil
}
