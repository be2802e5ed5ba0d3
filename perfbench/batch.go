package main

import (
	"bytes"
	"fmt"
	"runtime"
	"slices"
	"time"

	"cluseq/internal/core"
	"cluseq/internal/eval"
	"cluseq/internal/obs"
	"cluseq/internal/seq"
)

// The batch workload clusters batchDatabases planted-family databases of
// the experiments' small scale, one core.Cluster job each, in batchRounds
// rounds. A job's wall time varies by about ±15% between databases of
// different seeds, so each run averages over several databases. The
// number of rounds is fixed, not fitted to the window, so every run takes
// the fastest of the same number of samples (noise rule 5).
const (
	batchDatabases = 4
	batchSize      = 1000
	batchRounds    = 2
	batchSetups    = 5
)

var phases = []string{"generate", "score", "apply", "consolidate", "threshold", "refine"}

func runBatch(p *pass) error {
	// Set-up: generate each database, write it in the text format and
	// parse it back, as a user loads an input file.
	fp := newFingerprint(p.workload, p.seed)
	var dbs []*seq.Database
	var setups []float64
	for r := 0; r < batchSetups; r++ {
		start := time.Now()
		dbs = dbs[:0]
		for k := 0; k < batchDatabases; k++ {
			gen := plantedDB(subSeed(p.seed, fmt.Sprintf("batch/%d", k)), batchSize, familyLength)
			var text bytes.Buffer
			if err := seq.Write(&text, gen); err != nil {
				return err
			}
			if r == 0 {
				fp.strings(fmt.Sprintf("db%d", k), []string{text.String()})
			}
			db, err := seq.Read(&text)
			if err != nil {
				return err
			}
			dbs = append(dbs, db)
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	p.res.Meta["fingerprint"] = fp.sum()
	p.metric("setup_s", median(setups))

	cfg := clusterConfig(subSeed(p.seed, "batch/cluster"))
	cfg.Workers = runtime.GOMAXPROCS(0)
	cfg.Obs = p.reg

	var (
		times    = make([][]float64, len(dbs))
		members  = make([][][]int, len(dbs)) // round 0's memberships, per database
		accuracy = 0.0
		jobs     int
		iters    int
		hits     int
		misses   int
		compiles int
		nodes    int
	)
	gc0 := readGC()
	for round := 0; round < batchRounds; round++ {
		for k, db := range dbs {
			// Every job starts from a collected heap, so one job's garbage
			// neither slows the next nor stacks onto its peak RSS.
			runtime.GC()
			t0 := time.Now()
			res, err := core.Cluster(db, cfg)
			t1 := time.Now()
			p.tr.record(span{name: "core.Cluster", trace: p.tr.newTrace(), start: t0, end: t1, failed: err != nil})
			if !p.check(err == nil && res.NumClusters() > 0, "cluster database %d round %d: %v", k, round, err) {
				continue
			}
			jobs++
			times[k] = append(times[k], t1.Sub(t0).Seconds())
			got := memberships(res)
			if members[k] == nil {
				members[k] = got
				rep, err := eval.Evaluate(res.PrimaryClustering(), seqLabels(db))
				if err != nil {
					return err
				}
				accuracy += rep.Accuracy / float64(len(dbs))
				if k == 0 && p.traced() {
					// The scan: classify the database against the model its
					// job produced, now, so the run never holds two jobs'
					// trees at once.
					clf, err := core.NewClassifier(db, res, cfg)
					if err != nil {
						return err
					}
					raw := make([]string, db.Len())
					for i, s := range db.Sequences {
						raw[i] = db.Alphabet.Decode(s.Symbols)
					}
					measureScan(p, clf, raw)
				}
			} else {
				p.check(equalMembers(got, members[k]), "database %d round %d: memberships differ from round 0", k, round)
			}
			iters += res.Iterations
			for _, it := range res.Trace {
				hits += it.CacheHits
				misses += it.CacheMisses
				compiles += it.SnapshotCompiles
			}
			for _, c := range res.Clusters {
				nodes += c.TreeStats.Nodes
			}
		}
	}
	gc := readGC().since(gc0)

	// A database's job time is its fastest round: the work is fixed and
	// host noise only adds time. Rounds run a full round apart, so a burst
	// of steal from other guests shorter than a round slows at most one.
	var perDB []float64
	sum, seqs := 0.0, 0
	for k, ts := range times {
		if len(ts) == 0 {
			continue
		}
		m := slices.Min(ts)
		perDB = append(perDB, m)
		sum += m
		seqs += dbs[k].Len()
	}
	if len(perDB) == 0 {
		return fmt.Errorf("no clustering job succeeded")
	}
	clusterS := sum / float64(len(perDB))
	p.metric("accuracy", accuracy)
	p.metric("seq_per_s", float64(seqs)/sum)
	p.metric("p50_ms", 1000*median(perDB))

	p.res.Meta["jobs"] = jobs
	p.res.Meta["gc_cycles"] = gc.cycles
	p.report("setup_s", p.res.Metrics["setup_s"], "s", batchSetups, "setup_s")
	p.report("accuracy", accuracy, "ratio", len(dbs), "accuracy")
	p.report("cluster_s", clusterS, "s", jobs, "")
	p.report("cluster_seq_per_s", p.res.Metrics["seq_per_s"], "1/s", jobs, "seq_per_s")
	p.report("cluster_p50_ms", p.res.Metrics["p50_ms"], "ms", len(perDB), "p50_ms")
	p.report("cluster_max_ms", 1000*slices.Max(perDB), "ms", len(perDB), "")

	if !p.traced() {
		return nil
	}
	n := float64(jobs)
	p.layer("core.iterations", float64(iters)/n)
	p.layer("core.similarity_evals", float64(misses)/n)
	p.layer("core.cache_hit_ratio", ratio(float64(hits), float64(hits+misses)))
	p.layer("pst.snapshot_compiles", float64(compiles)/n)
	p.layer("pst.nodes", float64(nodes)/n)
	p.layer("runtime.gc_cycles", float64(gc.cycles))
	p.layer("runtime.gc_pause_ms", gc.pauseMs)

	tracedS := 0.0
	for _, s := range p.tr.named("core.Cluster") {
		tracedS += s.dur().Seconds()
	}
	p.tr.class("cluster", tracedS)
	phaseSum := 0.0
	for _, ph := range phases {
		busy, count := obsRead(p.reg, "cluseq_engine_phase_seconds", "phase", ph)
		phaseSum += busy
		row := tableRow{Class: "cluster", Layer: "core." + ph, Count: count, BusyS: busy, Ratio: -1, OnPath: true}
		if ph == "score" {
			row.Ratio = ratio(float64(hits), float64(hits+misses))
		}
		p.tr.row(row)
		if ph != "refine" {
			p.layer("core."+ph+"_s", busy/n)
		}
	}
	p.layer("core.unattributed_s", (tracedS-phaseSum)/n)
	compileS, compileN := obsRead(p.reg, "cluseq_engine_snapshot_compile_seconds")
	p.layer("pst.compile_s", compileS/n)
	p.tr.row(tableRow{Class: "cluster", Layer: "pst.compile (within phases)", Count: compileN, BusyS: compileS, Ratio: -1})
	tasks, _ := obsRead(p.reg, "cluseq_pool_tasks_total")
	runs, _ := obsRead(p.reg, "cluseq_pool_runs_total")
	poolS, _ := obsRead(p.reg, "cluseq_pool_run_seconds")
	p.layer("pool.tasks", tasks/n)
	p.layer("pool.runs", runs/n)
	p.tr.row(tableRow{Class: "cluster", Layer: "pool (within phases)", Count: int64(runs), BusyS: poolS, Ratio: -1})

	// The serial reference: the same database clustered with one worker
	// must yield the same memberships (determinism at any worker count).
	serial := cfg
	serial.Workers, serial.Obs = 1, nil
	res, err := core.Cluster(dbs[0], serial)
	p.check(err == nil && equalMembers(memberships(res), members[0]), "Workers=1 memberships differ from Workers=%d: %v", cfg.Workers, err)
	return nil
}

// seqLabels returns each sequence's planted family ("" for outliers).
func seqLabels(db *seq.Database) []string {
	out := make([]string, db.Len())
	for i, s := range db.Sequences {
		out[i] = s.Label
	}
	return out
}

// memberships returns a result's cluster member lists in cluster order.
func memberships(res *core.Result) [][]int {
	if res == nil {
		return nil
	}
	out := make([][]int, len(res.Clusters))
	for i, c := range res.Clusters {
		out[i] = c.Members
	}
	return out
}

func equalMembers(a, b [][]int) bool {
	return slices.EqualFunc(a, b, func(x, y []int) bool { return slices.Equal(x, y) })
}

// measureScan times the classifier over raw sequences from outside:
// ClassifyString per sequence (encoding plus scan) and Classify over the
// pre-encoded symbols (the snapshot scan alone).
func measureScan(p *pass, clf *core.Classifier, raw []string) {
	syms := make([][]seq.Symbol, len(raw))
	symbols := 0
	for i, s := range raw {
		syms[i], _ = clf.Alphabet().Encode(s)
		symbols += len(syms[i])
	}
	start := time.Now()
	for _, s := range raw {
		clf.ClassifyString(s)
	}
	p.layer("core.classify_us_per_seq", time.Since(start).Seconds()*1e6/float64(len(raw)))
	start = time.Now()
	for _, s := range syms {
		clf.Classify(s)
	}
	p.layer("pst.scan_ns_per_symbol", float64(time.Since(start).Nanoseconds())/float64(symbols*clf.NumClusters()))
}

// obsRead sums a metric's series whose labels include the given pairs:
// a histogram's sample sum and count, or a counter's or gauge's value.
func obsRead(reg *obs.Registry, name string, labelKV ...string) (float64, int64) {
	var sum float64
	var count int64
	for _, m := range reg.Snapshot() {
		if m.Name != name {
			continue
		}
		match := true
		for i := 0; i+1 < len(labelKV); i += 2 {
			if m.Label(labelKV[i]) != labelKV[i+1] {
				match = false
			}
		}
		if !match {
			continue
		}
		if m.Kind == obs.KindHistogram {
			sum += m.Sum
			count += m.Count
		} else {
			sum += m.Value
			count++
		}
	}
	return sum, count
}

type gcStat struct {
	cycles  uint32
	pauseNs uint64
	pauseMs float64
}

func readGC() gcStat {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return gcStat{cycles: m.NumGC, pauseNs: m.PauseTotalNs}
}

func (g gcStat) since(prev gcStat) gcStat {
	d := gcStat{cycles: g.cycles - prev.cycles, pauseNs: g.pauseNs - prev.pauseNs}
	d.pauseMs = float64(d.pauseNs) / 1e6
	return d
}
