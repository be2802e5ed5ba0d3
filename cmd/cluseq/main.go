// Command cluseq clusters a sequence database with the CLUSEQ algorithm.
//
// Usage:
//
//	cluseq [flags] [input-file]
//
// The input is the repository's FASTA-like text format (see package
// cluseq's ReadDatabase); with no file argument it reads standard input.
// Each discovered cluster is printed with its member sequence IDs. When
// the input carries ground-truth labels, a quality report (per-family
// precision/recall and overall accuracy) is appended. With -model FILE
// the trained cluster models are saved for cmd/classify.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"text/tabwriter"

	"cluseq"
	"cluseq/internal/prof"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr))
}

func run(args []string, stdin io.Reader, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("cluseq", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		k          = fs.Int("k", 1, "initial number of clusters")
		c          = fs.Int("c", 30, "significance threshold (occurrences before a context is trusted)")
		t0         = fs.Float64("t", 1.5, "initial similarity threshold (per-symbol normalized)")
		fixedT     = fs.Bool("fixed-t", false, "disable automatic threshold adjustment")
		fixedC     = fs.Bool("fixed-c", false, "disable adaptive significance scaling (paper's exact behaviour)")
		depth      = fs.Int("depth", 10, "maximum PST context depth (short-memory bound L)")
		maxBytes   = fs.Int("pst-bytes", 0, "per-cluster PST memory cap in bytes (0 = unlimited)")
		seed       = fs.Uint64("seed", 1, "random seed")
		workers    = fs.Int("workers", 0, "similarity-scoring parallelism (0 = all CPUs, 1 = serial; results are identical either way)")
		cacheOff   = fs.Bool("cache-off", false, "disable the cross-iteration similarity cache (re-score every pair each pass)")
		verbose    = fs.Bool("v", false, "log per-iteration progress to stderr")
		idsOnly    = fs.Bool("ids", false, "print only cluster member IDs, one cluster per line")
		model      = fs.String("model", "", "write the trained cluster models to this file (for cmd/classify)")
		cpuProfile = fs.String("cpuprofile", "", "write a pprof CPU profile of the run to this file")
		memProfile = fs.String("memprofile", "", "write a pprof heap profile (post-GC) to this file on exit")
		traceOut   = fs.String("trace-out", "", "write one job trace per clustering iteration and a final metrics snapshot as JSON Lines to this file")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	stopProf, err := prof.Start(*cpuProfile, *memProfile)
	if err != nil {
		fmt.Fprintln(stderr, "cluseq:", err)
		return 1
	}
	defer func() {
		if err := stopProf(); err != nil {
			fmt.Fprintln(stderr, "cluseq:", err)
		}
	}()

	in := stdin
	if fs.NArg() > 1 {
		fmt.Fprintln(stderr, "usage: cluseq [flags] [input-file]")
		return 2
	}
	if fs.NArg() == 1 {
		f, err := os.Open(fs.Arg(0))
		if err != nil {
			fmt.Fprintln(stderr, "cluseq:", err)
			return 1
		}
		defer f.Close()
		in = f
	}
	db, err := cluseq.ReadDatabase(in)
	if err != nil {
		fmt.Fprintln(stderr, "cluseq:", err)
		return 1
	}

	opts := cluseq.Options{
		InitialClusters:     *k,
		Significance:        *c,
		SimilarityThreshold: *t0,
		FixedThreshold:      *fixedT,
		FixedSignificance:   *fixedC,
		MaxDepth:            *depth,
		MaxPSTBytes:         *maxBytes,
		Seed:                *seed,
		Workers:             *workers,
		CacheOff:            *cacheOff,
		KeepTrees:           *model != "",
	}
	if *verbose {
		opts.Logf = func(format string, args ...any) {
			fmt.Fprintf(stderr, format+"\n", args...)
		}
	}
	var (
		tracer    *cluseq.Tracer
		traceFile *os.File
	)
	if *traceOut != "" {
		traceFile, err = os.Create(*traceOut)
		if err != nil {
			fmt.Fprintln(stderr, "cluseq:", err)
			return 1
		}
		tracer = cluseq.NewTracer(traceFile)
		opts.Flight = cluseq.NewFlight(cluseq.FlightConfig{Tracer: tracer})
		opts.Obs = cluseq.NewMetrics()
	}
	res, err := cluseq.Cluster(db, opts)
	if err != nil {
		fmt.Fprintln(stderr, "cluseq:", err)
		return 1
	}
	if tracer != nil {
		tracer.EmitMetrics(opts.Obs)
		if err := tracer.Err(); err != nil {
			fmt.Fprintln(stderr, "cluseq: writing trace:", err)
			return 1
		}
		if err := traceFile.Close(); err != nil {
			fmt.Fprintln(stderr, "cluseq: writing trace:", err)
			return 1
		}
	}

	if *model != "" {
		if err := saveModel(db, res, opts, *model); err != nil {
			fmt.Fprintln(stderr, "cluseq:", err)
			return 1
		}
		fmt.Fprintf(stderr, "cluseq: wrote %d cluster models to %s\n", res.NumClusters(), *model)
	}

	if *idsOnly {
		printIDs(stdout, db, res)
		return 0
	}
	fmt.Fprintf(stdout, "%d clusters, %d outliers, %d iterations, final t = %.4g\n\n",
		res.NumClusters(), len(res.Unclustered), res.Iterations, res.FinalThreshold)
	for i, cl := range res.Clusters {
		fmt.Fprintf(stdout, "cluster %d (%d members, PST: %d nodes / %d significant):\n",
			i+1, len(cl.Members), cl.TreeStats.Nodes, cl.TreeStats.SignificantNodes)
		for _, m := range cl.Members {
			fmt.Fprintf(stdout, "  %s\n", db.Sequences[m].ID)
		}
	}
	if len(res.Unclustered) > 0 {
		fmt.Fprintf(stdout, "unclustered:\n")
		for _, m := range res.Unclustered {
			fmt.Fprintf(stdout, "  %s\n", db.Sequences[m].ID)
		}
	}

	if labels := cluseq.Labels(db); hasLabels(labels) {
		rep, err := cluseq.Evaluate(res, labels)
		if err != nil {
			fmt.Fprintln(stderr, "cluseq:", err)
			return 1
		}
		fmt.Fprintf(stdout, "\nground truth found: accuracy %.1f%% (macro precision %.1f%%, recall %.1f%%)\n",
			100*rep.Accuracy, 100*rep.MacroPrecision, 100*rep.MacroRecall)
		tw := tabwriter.NewWriter(stdout, 2, 4, 2, ' ', 0)
		fmt.Fprintln(tw, "family\tsize\tprecision\trecall")
		for _, pr := range rep.PerLabel {
			fmt.Fprintf(tw, "%s\t%d\t%.1f%%\t%.1f%%\n", pr.Label, pr.TrueSize, 100*pr.Precision, 100*pr.Recall)
		}
		tw.Flush()
	}
	return 0
}

// saveModel writes the bundle atomically (temp file + rename): a serving
// daemon may be memory-mapping the previous version of this file, and an
// in-place rewrite would mutate pages under its readers.
func saveModel(db *cluseq.Database, res *cluseq.Result, opts cluseq.Options, path string) error {
	clf, err := cluseq.NewClassifier(db, res, opts)
	if err != nil {
		return err
	}
	dir := filepath.Dir(path)
	f, err := os.CreateTemp(dir, filepath.Base(path)+".tmp")
	if err != nil {
		return err
	}
	err = clf.SaveBundle(f, cluseq.BundleOptions{})
	if err == nil {
		err = f.Close()
	} else {
		f.Close()
	}
	if err != nil {
		os.Remove(f.Name())
		return err
	}
	if err := os.Rename(f.Name(), path); err != nil {
		os.Remove(f.Name())
		return err
	}
	return nil
}

func printIDs(w io.Writer, db *cluseq.Database, res *cluseq.Result) {
	for _, cl := range res.Clusters {
		for i, m := range cl.Members {
			if i > 0 {
				fmt.Fprint(w, " ")
			}
			fmt.Fprint(w, db.Sequences[m].ID)
		}
		fmt.Fprintln(w)
	}
}

func hasLabels(labels []string) bool {
	for _, l := range labels {
		if l != "" {
			return true
		}
	}
	return false
}
