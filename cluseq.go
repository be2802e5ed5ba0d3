// Package cluseq is a Go implementation of CLUSEQ (Yang & Wang, ICDE
// 2003): clustering of categorical symbol sequences by their sequential
// statistical features. Each cluster is summarized by a probabilistic
// suffix tree (PST) holding the conditional probability distribution of
// the next symbol given a preceding segment; a sequence's similarity to a
// cluster is the maximal likelihood ratio of any of its segments against
// a memoryless background, and the algorithm adjusts both the number of
// clusters and the similarity threshold automatically.
//
// # Quick start
//
//	db := cluseq.NewDatabase(cluseq.MustAlphabet("acgt"))
//	db.AddString("s1", "", "acgtacgtacgt")
//	db.AddString("s2", "", "ttttgggg")
//	// … add more sequences …
//	res, err := cluseq.Cluster(db, cluseq.Options{})
//	if err != nil { … }
//	for _, c := range res.Clusters {
//		fmt.Println(c.ID, c.Members)
//	}
//
// The subpackages under internal/ implement the building blocks (PST,
// suffix tree, baselines, evaluation, workload generators); this package
// is the supported public surface.
package cluseq

import (
	"io"

	"cluseq/internal/core"
	"cluseq/internal/eval"
	"cluseq/internal/obs"
	"cluseq/internal/pst"
	"cluseq/internal/registry"
	"cluseq/internal/seq"
	"cluseq/internal/server"
	"cluseq/internal/stream"
)

// Core data types, re-exported from internal/seq.
type (
	// Alphabet maps runes to dense integer symbols.
	Alphabet = seq.Alphabet
	// Symbol is one encoded sequence element.
	Symbol = seq.Symbol
	// Sequence is an ordered list of symbols with an ID and an optional
	// ground-truth label.
	Sequence = seq.Sequence
	// Database is a set of sequences over one alphabet.
	Database = seq.Database
)

// Clustering types, re-exported from internal/core.
type (
	// Options parameterizes Cluster. The zero value uses the paper's
	// defaults (k=1, c=30, t=1.1, automatic threshold adjustment on).
	Options = core.Config
	// Result is a clustering outcome: clusters, outliers, and a
	// per-iteration trace.
	Result = core.Result
	// ClusterInfo describes one discovered cluster.
	ClusterInfo = core.ClusterInfo
	// IterationTrace records one outer-loop iteration: cluster churn,
	// membership moves, threshold adjustment, and the similarity cache's
	// hit/miss counters.
	IterationTrace = core.IterationTrace
	// OrderStrategy selects the sequence examination order (§6.3).
	OrderStrategy = core.OrderStrategy
)

// Sequence processing orders (paper §6.3).
const (
	OrderFixed        = core.OrderFixed
	OrderRandom       = core.OrderRandom
	OrderClusterBased = core.OrderClusterBased
)

// PST types, re-exported for users who want direct access to the paper's
// data structure (e.g. to model a known family and score sequences).
type (
	// PST is a probabilistic suffix tree.
	PST = pst.Tree
	// PSTConfig parameterizes a PST.
	PSTConfig = pst.Config
	// Similarity is a SIM evaluation result (log domain plus the
	// best-scoring segment).
	Similarity = pst.Similarity
)

// PST pruning strategies (paper §5.1).
const (
	PruneAuto           = pst.PruneAuto
	PruneMinCount       = pst.PruneMinCount
	PruneLongestLabel   = pst.PruneLongestLabel
	PruneExpectedVector = pst.PruneExpectedVector
)

// Evaluation types, re-exported from internal/eval.
type (
	// Report holds clustering quality versus ground-truth labels.
	Report = eval.Report
	// Clustering is the label-free clustering representation.
	Clustering = eval.Clustering
)

// NewAlphabet builds an alphabet from the distinct runes of s.
func NewAlphabet(s string) (*Alphabet, error) { return seq.NewAlphabet(s) }

// MustAlphabet is NewAlphabet that panics on error.
func MustAlphabet(s string) *Alphabet { return seq.MustAlphabet(s) }

// NewDatabase returns an empty database over the alphabet.
func NewDatabase(a *Alphabet) *Database { return seq.NewDatabase(a) }

// ReadDatabase parses a database from the FASTA-like text format
// (see WriteDatabase for the format produced).
func ReadDatabase(r io.Reader) (*Database, error) { return seq.Read(r) }

// WriteDatabase serializes a database, including its alphabet directive,
// so that a round trip preserves symbol numbering.
func WriteDatabase(w io.Writer, db *Database) error { return seq.Write(w, db) }

// Cluster runs the CLUSEQ algorithm over the database.
func Cluster(db *Database, opts Options) (*Result, error) { return core.Cluster(db, opts) }

// NewPST builds an empty probabilistic suffix tree; Insert sequences or
// segments into it and use Similarity to score candidates against it.
func NewPST(cfg PSTConfig) (*PST, error) { return pst.New(cfg) }

// LoadPST reads a probabilistic suffix tree previously written with
// PST.Save.
func LoadPST(r io.Reader) (*PST, error) { return pst.Load(r) }

// Classifier assigns new sequences to the clusters of a finished run,
// applying exactly the membership rule the clustering converged to. Build
// one with NewClassifier (from a run with Options.KeepTrees) or
// LoadClassifier (from a saved model bundle); persist with
// Classifier.SaveBundle.
type Classifier = core.Classifier

// Assignment is one classification outcome.
type Assignment = core.Assignment

// NewClassifier builds a classifier from a clustering result; the run
// must have set Options.KeepTrees.
func NewClassifier(db *Database, res *Result, opts Options) (*Classifier, error) {
	return core.NewClassifier(db, res, opts)
}

// LoadClassifier reads a model bundle written by Classifier.SaveBundle
// (format v3), or a legacy v1/v2 bundle written by an earlier version.
func LoadClassifier(r io.Reader) (*Classifier, error) { return core.LoadClassifier(r) }

// BundleOptions parameterizes Classifier.SaveBundle (format v3, the
// mmap-able arena layout — see DESIGN.md §14).
type BundleOptions = core.BundleOptions

// ModelInfo summarizes a classifier's parameters and per-cluster trees
// (see Classifier.Info).
type ModelInfo = core.ModelInfo

// Serving types, re-exported from internal/registry and internal/server
// for the cluseqd daemon and for users embedding the serving layer.
type (
	// ModelRegistry holds named classifier models loaded from a bundle
	// directory and hot-reloads them without disturbing in-flight
	// readers.
	ModelRegistry = registry.Registry
	// Model is one loaded classifier bundle.
	Model = registry.Model
	// ReloadReport describes the outcome of one registry reload pass.
	ReloadReport = registry.Report
	// Server routes the cluseqd HTTP API over a model registry.
	Server = server.Server
	// ServerConfig parameterizes NewServer.
	ServerConfig = server.Config
	// ClassifyRequest is the body of POST /v1/classify.
	ClassifyRequest = server.ClassifyRequest
	// ClassifyResponse answers POST /v1/classify.
	ClassifyResponse = server.ClassifyResponse
	// ClassifyResult is one sequence's outcome within a ClassifyResponse.
	ClassifyResult = server.ClassifyResult
	// IngestRequest is the body of POST /v1/ingest.
	IngestRequest = server.IngestRequest
	// IngestResponse answers POST /v1/ingest.
	IngestResponse = server.IngestResponse
)

// Streaming types, re-exported from internal/stream for the cluseqd
// daemon and for users embedding incremental clustering directly (see
// DESIGN.md §13 for the lifecycle and snapshot-publication contract).
type (
	// StreamOptions parameterizes NewStreamEngine. Only Alphabet is
	// required; every other zero field picks a sensible default.
	StreamOptions = stream.Config
	// StreamEngine clusters an unbounded sequence stream incrementally,
	// publishing immutable classifier snapshots at each consolidation.
	StreamEngine = stream.Engine
	// IngestVerdict is the per-sequence outcome of an ingest.
	IngestVerdict = stream.Verdict
	// IngestStatus classifies one ingest outcome.
	IngestStatus = stream.Status
	// StreamStats is the engine's counter and size snapshot
	// (GET /v1/ingest/stats).
	StreamStats = stream.Stats
)

// Ingest outcomes.
const (
	IngestAccepted   = stream.StatusAccepted
	IngestNewCluster = stream.StatusNewCluster
	IngestRejected   = stream.StatusRejected
)

// NewStreamEngine constructs an incremental clustering engine. Wire its
// Publish option to ModelRegistry.Publish to surface each consolidated
// snapshot on the serving API, and pass the engine to
// ServerConfig.Stream to enable POST /v1/ingest. Close it when done.
func NewStreamEngine(cfg StreamOptions) (*StreamEngine, error) { return stream.New(cfg) }

// ModelBundleExt is the filename extension the registry requires of a
// model bundle.
const ModelBundleExt = registry.Ext

// Observability types, re-exported from internal/obs (see DESIGN.md
// §10 for the metric catalogue and span taxonomy).
type (
	// Metrics is a registry of named counters, gauges, and timing
	// histograms. Attach one to Options.Obs to meter a clustering run,
	// or to ServerConfig.Obs to share one exposition across the daemon.
	Metrics = obs.Registry
	// Tracer writes finished traces as JSON Lines to an io.Writer.
	// Attach it to FlightConfig.Tracer: the recorder then writes every
	// trace it retains.
	Tracer = obs.Tracer
	// Flight is the trace flight recorder: an always-on ring of retained
	// request and job traces plus a top-K slowest index, with tail-based
	// sampling. Attach to Options.Flight to record one job trace per
	// clustering iteration, to StreamOptions.Flight for one per
	// consolidation, and to ServerConfig.Flight for requests (see
	// obs.Flight).
	Flight = obs.Flight
	// FlightConfig parameterizes NewFlight.
	FlightConfig = obs.FlightConfig
	// TraceFilter selects traces out of a flight dump.
	TraceFilter = obs.TraceFilter
	// SLO declares one route's latency/error objective for the
	// cluseqd_slo_* burn-rate gauges (see ServerConfig.SLOs).
	SLO = server.SLO
)

// NewMetrics returns an empty metrics registry.
func NewMetrics() *Metrics { return obs.NewRegistry() }

// NewTracer returns a tracer emitting JSONL records to w; the caller
// owns w and should check Tracer.Err once tracing is done.
func NewTracer(w io.Writer) *Tracer { return obs.NewTracer(w) }

// NewFlight returns a flight recorder; zero-value config fields pick
// production-safe defaults.
func NewFlight(cfg FlightConfig) *Flight { return obs.NewFlight(cfg) }

// ParseSLO parses one -slo flag value (see server.ParseSLO for the
// key=value grammar).
func ParseSLO(spec string) (SLO, error) { return server.ParseSLO(spec) }

// OpenModelRegistry scans dir and loads every model bundle in it,
// serving v3 bundles zero-copy from memory maps of the files. The
// report lists what loaded and what failed; the call errors only when
// the directory itself is unreadable.
func OpenModelRegistry(dir string) (*ModelRegistry, ReloadReport, error) {
	return registry.Open(dir)
}

// RegistryOptions configures OpenModelRegistryWith; the zero value
// disables mmap and loads every bundle by copying.
type RegistryOptions = registry.Options

// OpenModelRegistryWith is OpenModelRegistry with explicit options.
func OpenModelRegistryWith(dir string, opts RegistryOptions) (*ModelRegistry, ReloadReport, error) {
	return registry.OpenWith(dir, opts)
}

// NewServer returns the serving daemon's HTTP layer over a registry.
func NewServer(cfg ServerConfig) (*Server, error) { return server.New(cfg) }

// Evaluate scores a clustering result against ground-truth labels
// (labels[i] belongs to database sequence i; empty labels mark outliers,
// excluded from the quality measures). Quality is measured on the primary
// (disjoint) membership view — each sequence counted in its best cluster —
// the way the paper's precision/recall tables treat assignment; use
// EvaluateOverlapping to score the full overlapping membership instead.
func Evaluate(res *Result, labels []string) (Report, error) {
	return eval.Evaluate(res.PrimaryClustering(), labels)
}

// EvaluateOverlapping scores the full (possibly overlapping) cluster
// membership against ground-truth labels.
func EvaluateOverlapping(res *Result, labels []string) (Report, error) {
	return eval.Evaluate(res.Clustering(), labels)
}

// Labels extracts the ground-truth label vector of a database, aligned
// with its sequence indices, for Evaluate.
func Labels(db *Database) []string {
	out := make([]string, db.Len())
	for i, s := range db.Sequences {
		out[i] = s.Label
	}
	return out
}
