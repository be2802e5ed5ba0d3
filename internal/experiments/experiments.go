// Package experiments contains one runner per table and figure of the
// paper's evaluation (§6), shared by cmd/experiments and the repository's
// benchmarks. Each runner builds its workload with internal/datagen,
// executes CLUSEQ (and, for Table 2, the four baselines), and returns a
// result struct that renders a paper-style table.
//
// Workloads come in three scales: the paper's exact parameters
// (ScalePaper: 100,000 sequences × 1000 symbols — hours of compute), a
// laptop scale preserving every shape (ScaleSmall, the cmd/experiments
// default), and a seconds-scale for `go test -bench` (ScaleTiny). The
// comparison targets are shapes, not absolute numbers: who wins, by what
// rough factor, and how curves grow.
package experiments

import (
	"encoding/json"
	"fmt"
	"strings"
	"text/tabwriter"
	"time"

	"cluseq/internal/core"
	"cluseq/internal/datagen"
	"cluseq/internal/eval"
	"cluseq/internal/obs"
	"cluseq/internal/seq"
)

// Scale selects workload sizes.
type Scale int

const (
	// ScaleTiny completes each experiment in seconds (benchmarks).
	ScaleTiny Scale = iota
	// ScaleSmall completes the full suite in minutes (default).
	ScaleSmall
	// ScalePaper uses the paper's exact workload parameters.
	ScalePaper
)

// ParseScale converts a flag string to a Scale.
func ParseScale(s string) (Scale, error) {
	switch strings.ToLower(s) {
	case "tiny":
		return ScaleTiny, nil
	case "small":
		return ScaleSmall, nil
	case "paper", "full":
		return ScalePaper, nil
	}
	return 0, fmt.Errorf("experiments: unknown scale %q (tiny|small|paper)", s)
}

// MarshalJSON renders the scale by name, for the JSON perf records
// written by cmd/experiments.
func (s Scale) MarshalJSON() ([]byte, error) { return json.Marshal(s.String()) }

func (s Scale) String() string {
	switch s {
	case ScaleTiny:
		return "tiny"
	case ScaleSmall:
		return "small"
	case ScalePaper:
		return "paper"
	}
	return fmt.Sprintf("Scale(%d)", int(s))
}

// proteinConfig returns the simulated SWISS-PROT workload per scale.
func proteinConfig(s Scale, seed uint64) datagen.ProteinConfig {
	switch s {
	case ScaleTiny:
		return datagen.ProteinConfig{Scale: 0.06, MinLength: 100, MaxLength: 350, Seed: seed}
	case ScaleSmall:
		return datagen.ProteinConfig{Scale: 0.12, MinLength: 100, MaxLength: 400, Seed: seed}
	default:
		return datagen.ProteinConfig{Scale: 1, Seed: seed} // paper: 8000 × 100–400
	}
}

// syntheticConfig returns the §6.2-6.4 synthetic workload per scale.
func syntheticConfig(s Scale, seed uint64) datagen.SyntheticConfig {
	switch s {
	case ScaleTiny:
		return datagen.SyntheticConfig{
			NumSequences: 200, AvgLength: 100, AlphabetSize: 20,
			NumClusters: 5, OutlierFrac: 0.05, Seed: seed,
		}
	case ScaleSmall:
		return datagen.SyntheticConfig{
			NumSequences: 1000, AvgLength: 200, AlphabetSize: 50,
			NumClusters: 10, OutlierFrac: 0.05, Seed: seed,
		}
	default: // paper §6.2: 100,000 × 1000, 100 symbols, 50 clusters
		return datagen.SyntheticConfig{
			NumSequences: 100000, AvgLength: 1000, AlphabetSize: 100,
			NumClusters: 50, OutlierFrac: 0.05, Seed: seed,
		}
	}
}

// languageConfig returns the Table 4 workload per scale.
func languageConfig(s Scale, seed uint64) datagen.LanguageConfig {
	switch s {
	case ScaleTiny:
		return datagen.LanguageConfig{SentencesPerLanguage: 80, NoiseSentences: 15, Seed: seed}
	case ScaleSmall:
		return datagen.LanguageConfig{SentencesPerLanguage: 250, NoiseSentences: 40, Seed: seed}
	default: // paper: 600 per language + 100 noise
		return datagen.LanguageConfig{SentencesPerLanguage: 600, NoiseSentences: 100, Seed: seed}
	}
}

// cluseqConfig scales the algorithm parameters with the workload: the
// paper's c=30 significance presumes family statistics from hundreds of
// sequences; smaller workloads need proportionally smaller significance
// and consolidation minima.
//
// The synthetic workload's clusters are globally distinct sources, so it
// runs the paper's exact fixed-significance estimator; the protein and
// language workloads carry local (motif/letter-pattern) signal and use
// the adaptive significance default (see core.Config.FixedSignificance).
func cluseqConfig(s Scale, seed uint64) core.Config {
	switch s {
	case ScaleTiny:
		return core.Config{
			Significance: 20, MinDistinct: 3,
			SimilarityThreshold: 1.03, MaxDepth: 5,
			MaxIterations: 25, Seed: seed,
			FixedSignificance: true,
		}
	case ScaleSmall:
		return core.Config{
			Significance: 25, MinDistinct: 5,
			SimilarityThreshold: 1.5, MaxDepth: 6,
			MaxIterations: 40, Seed: seed,
			FixedSignificance: true,
		}
	default:
		return core.Config{
			Significance: 30, MinDistinct: 30, // the paper's c
			SimilarityThreshold: 1.5, MaxDepth: 8,
			MaxIterations: 60, Seed: seed,
			FixedSignificance: true,
		}
	}
}

// proteinCluseqConfig tunes CLUSEQ for the protein workload, whose family
// signal is local: conserved motifs plus a mild composition bias.
func proteinCluseqConfig(s Scale, seed uint64) core.Config {
	cfg := core.Config{
		InitialClusters:     10, // the paper's deliberately wrong initial k
		MinDistinct:         3,
		SimilarityThreshold: 1.5, MaxDepth: 6,
		MaxIterations: 30, Seed: seed,
	}
	switch s {
	case ScaleTiny:
		cfg.Significance = 8
	case ScaleSmall:
		cfg.Significance = 12
	default:
		cfg.Significance = 30
		cfg.MinDistinct = 30
		cfg.MaxIterations = 60
	}
	return cfg
}

// languageCluseqConfig tunes CLUSEQ for the Table 4 sentences: short
// sequences, local letter-pattern signal, and languages of fairly
// different intrinsic predictability — which favors starting the
// threshold high and letting §4.6 descend to the separating level.
func languageCluseqConfig(s Scale, seed uint64) core.Config {
	cfg := core.Config{
		InitialClusters: 1, MinDistinct: 3,
		SimilarityThreshold: 2.5, MaxDepth: 4,
		MaxIterations: 30, Seed: seed,
	}
	switch s {
	case ScaleTiny:
		cfg.Significance = 8
	case ScaleSmall:
		cfg.Significance = 12
	default:
		cfg.Significance = 30
		cfg.MinDistinct = 30
	}
	return cfg
}

// obsRegistry and obsTracer, when set via Instrument, are attached to
// every clustering run the experiments launch. Package-level because
// the experiment runners build their core.Config internally; this is
// the single choke point all of them pass through.
var (
	obsRegistry *obs.Registry
	obsTracer   *obs.Tracer
)

// Instrument attaches a metrics registry and span tracer (either may be
// nil) to every subsequent clustering run. Not safe to call while
// experiments are running.
func Instrument(reg *obs.Registry, tr *obs.Tracer) {
	obsRegistry, obsTracer = reg, tr
}

// runCLUSEQ executes the core algorithm and evaluates it against the
// database's ground-truth labels. A cfg.Obs the caller set is kept (the
// recluster benchmark reads each run's phase times from its own
// registry); otherwise the run reports to the Instrument registry.
func runCLUSEQ(db *seq.Database, cfg core.Config) (*core.Result, eval.Report, time.Duration, error) {
	if cfg.Obs == nil {
		cfg.Obs = obsRegistry
	}
	cfg.Tracer = obsTracer
	start := time.Now()
	res, err := core.Cluster(db, cfg)
	elapsed := time.Since(start)
	if err != nil {
		return nil, eval.Report{}, elapsed, err
	}
	// Quality is reported on the primary (disjoint) view, the way the
	// paper's precision/recall tables treat cluster assignment.
	rep, err := eval.Evaluate(res.PrimaryClustering(), labelsOf(db))
	if err != nil {
		return nil, eval.Report{}, elapsed, err
	}
	return res, rep, elapsed, nil
}

func labelsOf(db *seq.Database) []string {
	out := make([]string, db.Len())
	for i, s := range db.Sequences {
		out[i] = s.Label
	}
	return out
}

// renderTable renders rows with a header through a tabwriter.
func renderTable(title string, header []string, rows [][]string) string {
	var b strings.Builder
	fmt.Fprintln(&b, title)
	tw := tabwriter.NewWriter(&b, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, strings.Join(header, "\t"))
	for _, row := range rows {
		fmt.Fprintln(tw, strings.Join(row, "\t"))
	}
	tw.Flush()
	return b.String()
}

func pct(v float64) string        { return fmt.Sprintf("%.1f%%", 100*v) }
func secs(d time.Duration) string { return fmt.Sprintf("%.2fs", d.Seconds()) }
func f2(v float64) string         { return fmt.Sprintf("%.2f", v) }
func itoa(v int) string           { return fmt.Sprintf("%d", v) }
func bytesMB(v int) string        { return fmt.Sprintf("%.2fMB", float64(v)/(1<<20)) }
func micros(d time.Duration) string {
	return fmt.Sprintf("%.1fus", float64(d.Nanoseconds())/1e3)
}
