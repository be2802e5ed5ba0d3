// Command experiments regenerates every table and figure of the paper's
// evaluation section (§6) at a chosen workload scale.
//
// Usage:
//
//	experiments [-scale tiny|small|paper] [-seed N] [-run LIST] [-v]
//	            [-cpuprofile FILE] [-memprofile FILE] [-trace-out FILE]
//
// -run selects a comma-separated subset of: table2, table3, table4,
// figure4, figure5, table5, table6, order, outliers, recluster,
// similarity, figure6a, figure6b, figure6c, figure6d (default: all).
//
// -bench-recluster FILE is a standalone mode: it runs only the
// reclustering benchmark (similarity cache on/off × worker counts) and
// writes the result as JSON to FILE
// (conventionally BENCH_recluster.json), seeding the repository's perf
// trajectory. -bench-similarity FILE does the same for the similarity
// scan benchmark (tree scan vs compiled snapshot, conventionally
// BENCH_similarity.json).
//
// -cpuprofile/-memprofile write standard pprof profiles covering the
// selected runs; see EXPERIMENTS.md for the profiling workflow.
//
// -trace-out FILE records one JSONL job trace per clustering iteration
// (one span per phase) across every selected run, plus a final metrics
// snapshot; see EXPERIMENTS.md for how to read the file.
//
// The paper scale replays the exact workload sizes of the paper
// (100,000 × 1000 synthetic, 8000 proteins) and can take hours; the
// default small scale preserves every reported shape in minutes.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"cluseq"
	"cluseq/internal/experiments"
	"cluseq/internal/prof"
)

// result is what every experiment runner yields: printable and CSV-able.
type result interface {
	fmt.Stringer
	experiments.Tabular
}

// runner names one experiment and its execution closure.
type runner struct {
	name string
	run  func() (result, error)
}

// buildRunners assembles the experiment registry in paper order. Figure
// 6's panels map to the paper's lettering: (a) clusters, (b) sequences,
// (c) average length, (d) alphabet size.
func buildRunners(sc experiments.Scale, seed uint64) []runner {
	runners := []runner{
		{"table2", func() (result, error) { return experiments.RunTable2(sc, seed) }},
		{"table3", func() (result, error) { return experiments.RunTable3(sc, seed) }},
		{"table4", func() (result, error) { return experiments.RunTable4(sc, seed) }},
		{"figure4", func() (result, error) { return experiments.RunFigure4(sc, seed) }},
		{"figure5", func() (result, error) { return experiments.RunFigure5(sc, seed) }},
		{"table5", func() (result, error) { return experiments.RunTable5(sc, seed) }},
		{"table6", func() (result, error) { return experiments.RunTable6(sc, seed) }},
		{"order", func() (result, error) { return experiments.RunOrderStudy(sc, seed) }},
		{"outliers", func() (result, error) { return experiments.RunOutlierStudy(sc, seed) }},
		{"recluster", func() (result, error) { return experiments.RunReclusterBench(sc, seed) }},
		{"similarity", func() (result, error) { return experiments.RunSimilarityBench(sc, seed) }},
	}
	for i, axis := range experiments.Figure6Axes {
		axis := axis
		runners = append(runners, runner{
			"figure6" + string(rune('a'+i)),
			func() (result, error) { return experiments.RunFigure6(sc, axis, seed) },
		})
	}
	return runners
}

// experimentNames lists the registry's names in order.
func experimentNames() []string {
	rs := buildRunners(experiments.ScaleTiny, 1)
	names := make([]string, len(rs))
	for i, r := range rs {
		names[i] = r.name
	}
	return names
}

// runBenchJSON executes one benchmark runner, prints the table, and
// serializes the result as indented JSON — the machine-readable perf
// baseline successive revisions diff against.
func runBenchJSON(name string, run func() (result, error), path string) error {
	start := time.Now()
	res, err := run()
	if err != nil {
		return err
	}
	fmt.Printf("== %s (took %.1fs) ==\n%s\n", name, time.Since(start).Seconds(), res)
	data, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func main() {
	os.Exit(run())
}

// run holds the whole program so deferred cleanups (profile flushing)
// execute before the exit code is raised; main's os.Exit would skip
// them.
func run() int {
	scaleFlag := flag.String("scale", "small", "workload scale: tiny|small|paper")
	seed := flag.Uint64("seed", 1, "random seed for workload generation and clustering")
	runFlag := flag.String("run", "all", "comma-separated experiments to run, or 'all'")
	csvDir := flag.String("csv", "", "also write each result as CSV into this directory")
	benchRecluster := flag.String("bench-recluster", "", "run only the reclustering benchmark and write it as JSON to this file (e.g. BENCH_recluster.json)")
	benchSimilarity := flag.String("bench-similarity", "", "run only the similarity scan benchmark and write it as JSON to this file (e.g. BENCH_similarity.json)")
	cpuProfile := flag.String("cpuprofile", "", "write a pprof CPU profile covering the selected runs to this file")
	memProfile := flag.String("memprofile", "", "write a pprof heap profile (post-GC) to this file on exit")
	traceOut := flag.String("trace-out", "", "write one job trace per iteration of every clustering run plus a final metrics snapshot as JSON Lines to this file")
	flag.Parse()

	stopProf, err := prof.Start(*cpuProfile, *memProfile)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	var (
		obsReg *cluseq.Metrics
		tracer *cluseq.Tracer
	)
	if *traceOut != "" {
		traceFile, err := os.Create(*traceOut)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		obsReg = cluseq.NewMetrics()
		tracer = cluseq.NewTracer(traceFile)
		experiments.Instrument(obsReg, cluseq.NewFlight(cluseq.FlightConfig{Tracer: tracer}))
		defer func() {
			tracer.EmitMetrics(obsReg)
			err := tracer.Err()
			if cerr := traceFile.Close(); err == nil {
				err = cerr
			}
			if err != nil {
				fmt.Fprintln(os.Stderr, "writing trace:", err)
			}
		}()
	}
	code := 0
	defer func() {
		if err := stopProf(); err != nil {
			fmt.Fprintln(os.Stderr, err)
			if code == 0 {
				code = 1
			}
		}
	}()
	code = runSelected(*scaleFlag, *seed, *runFlag, *csvDir, *benchRecluster, *benchSimilarity)
	return code
}

func runSelected(scaleFlag string, seed uint64, runFlag, csvDir, benchRecluster, benchSimilarity string) int {
	sc, err := experiments.ParseScale(scaleFlag)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}

	if benchRecluster != "" || benchSimilarity != "" {
		if benchRecluster != "" {
			if err := runBenchJSON("recluster", func() (result, error) {
				return experiments.RunReclusterBench(sc, seed)
			}, benchRecluster); err != nil {
				fmt.Fprintln(os.Stderr, err)
				return 1
			}
		}
		if benchSimilarity != "" {
			if err := runBenchJSON("similarity", func() (result, error) {
				return experiments.RunSimilarityBench(sc, seed)
			}, benchSimilarity); err != nil {
				fmt.Fprintln(os.Stderr, err)
				return 1
			}
		}
		return 0
	}

	if csvDir != "" {
		if err := os.MkdirAll(csvDir, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
	}

	runners := buildRunners(sc, seed)

	selected := map[string]bool{}
	all := runFlag == "all"
	for _, name := range strings.Split(runFlag, ",") {
		selected[strings.TrimSpace(name)] = true
	}

	known := map[string]bool{}
	for _, r := range runners {
		known[r.name] = true
	}
	if !all {
		for name := range selected {
			if name != "" && !known[name] {
				fmt.Fprintf(os.Stderr, "unknown experiment %q\n", name)
				return 2
			}
		}
	}

	failed := false
	for _, r := range runners {
		if !all && !selected[r.name] {
			continue
		}
		start := time.Now()
		res, err := r.run()
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", r.name, err)
			failed = true
			continue
		}
		fmt.Printf("== %s (took %.1fs) ==\n%s\n", r.name, time.Since(start).Seconds(), res)
		if csvDir != "" {
			path := filepath.Join(csvDir, r.name+".csv")
			f, err := os.Create(path)
			if err == nil {
				err = experiments.WriteCSV(f, res)
				if cerr := f.Close(); err == nil {
					err = cerr
				}
			}
			if err != nil {
				fmt.Fprintf(os.Stderr, "%s: writing CSV: %v\n", r.name, err)
				failed = true
			}
		}
	}
	if failed {
		return 1
	}
	return 0
}
