// Command perfbench is the repository's pinned end-to-end benchmark. It
// composes the program in-process through its public constructors — the
// clustering engine (core.Cluster, Classifier.SaveBundle), the model
// registry (registry.OpenWith with mmap on), the HTTP server
// (server.New(...).Handler() on a loopback listener) and the streaming
// engine (stream.New, publishing into Registry.Publish) — and drives one of
// three seeded workloads against it:
//
//	batch     core.Cluster over §6.2 planted-family databases
//	classify  /v1/classify against a file-loaded, mmap-served bundle
//	          that is rewritten and hot-reloaded meanwhile
//	ingest    /v1/ingest into a capped stream engine on one connection,
//	          read back through /v1/classify on another
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload classify --seed 1 --seconds 25 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. With --trace 0 the metrics are
// the end-to-end metrics of one untraced run. With --trace 1 the workload
// runs twice at the same seed, untraced and then traced, each in a child
// process, and the metrics are the per-layer breakdown of the traced run
// plus the traced ÷ untraced ratio of every end-to-end metric. README.md
// holds the methodology.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"syscall"
	"text/tabwriter"
	"time"

	"cluseq/internal/obs"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd lists the metrics every workload reports from an untraced run.
// Every run reports all of them, so each is defined for every workload
// from that workload's own traffic (see README.md, "End-to-end metrics").
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
	{"accuracy", "ratio"},
	{"seq_per_s", "1/s"},
	{"p50_ms", "ms"},
}

// perLayer lists the metrics of a traced run. Every workload reports all
// of them; a layer its traffic does not reach reads 0.
var perLayer = []metricDef{
	{"core.generate_s", "s"},
	{"core.score_s", "s"},
	{"core.apply_s", "s"},
	{"core.consolidate_s", "s"},
	{"core.threshold_s", "s"},
	{"core.unattributed_s", "s"},
	{"core.iterations", "count"},
	{"core.similarity_evals", "count"},
	{"core.cache_hit_ratio", "ratio"},
	{"core.classify_us_per_seq", "us"},
	{"core.bundle_save_ms", "ms"},
	{"core.bundle_load_ms", "ms"},
	{"pst.scan_ns_per_symbol", "ns"},
	{"pst.snapshot_compiles", "count"},
	{"pst.compile_s", "s"},
	{"pst.nodes", "count"},
	{"stream.ingest_ms_p50", "ms"},
	{"stream.consolidate_ms_p50", "ms"},
	{"stream.consolidate_ms_max", "ms"},
	{"stream.merge_ms", "ms"},
	{"stream.lock_wait_ms_p99", "ms"},
	{"stream.consolidations", "count"},
	{"stream.merges", "count"},
	{"stream.dissolves", "count"},
	{"stream.new_clusters", "count"},
	{"stream.clusters", "count"},
	{"stream.accept_ratio", "ratio"},
	{"registry.get_ns", "ns"},
	{"registry.reload_ms_p50", "ms"},
	{"registry.reloads", "count"},
	{"registry.load_failures", "count"},
	{"registry.publish_us", "us"},
	{"registry.publishes", "count"},
	{"registry.mapped_bytes", "bytes"},
	{"server.classify.handler_p50_ms", "ms"},
	{"server.classify.handler_p99_ms", "ms"},
	{"server.classify.transport_p50_ms", "ms"},
	{"server.ingest.handler_p50_ms", "ms"},
	{"server.ingest.handler_p99_ms", "ms"},
	{"server.ingest.transport_p50_ms", "ms"},
	{"server.decode_us", "us"},
	{"server.encode_us", "us"},
	{"pool.tasks", "count"},
	{"pool.runs", "count"},
	{"obs.trace_overhead.setup_s", "ratio"},
	{"obs.trace_overhead.peak_rss_mb", "ratio"},
	{"obs.trace_overhead.accuracy", "ratio"},
	{"obs.trace_overhead.seq_per_s", "ratio"},
	{"obs.trace_overhead.p50_ms", "ratio"},
	{"runtime.gc_cycles", "count"},
	{"runtime.gc_pause_ms", "ms"},
	{"bench.late_p99_ms", "ms"},
	{"bench.late_share", "ratio"},
	{"bench.unattributed_s", "s"},
}

// named is one metric under the name the methodology gives it for a
// workload (cluster_s, classify_p99_ms, ...), printed in the report.
type named struct {
	Name    string  `json:"name"`
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples,omitempty"`
	// As names the end-to-end metric the value is reported under, if any.
	As string `json:"as,omitempty"`
}

// passResult is everything one pass (an untraced or a traced run of one
// workload) measured.
type passResult struct {
	Workload  string             `json:"workload"`
	Traced    bool               `json:"traced"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Problems  []string           `json:"problems,omitempty"`
	Metrics   map[string]float64 `json:"metrics"`
	Named     []named            `json:"named"`
	Layers    map[string]float64 `json:"layers,omitempty"`
	Table     []tableRow         `json:"table,omitempty"`
	Meta      map[string]any     `json:"meta"`
}

// pass is one run of a workload: its parameters and what it has measured
// so far.
type pass struct {
	workload string
	seed     uint64
	window   time.Duration
	work     string // scratch directory inside the checkout
	// tr and reg are the traced run's span recorder and metrics registry;
	// both are nil in an untraced run, where every use is a no-op.
	tr  *tracer
	reg *obs.Registry
	res *passResult
}

func (p *pass) traced() bool { return p.tr != nil }

// check counts one operation and records it as failed when ok is false.
func (p *pass) check(ok bool, format string, args ...any) bool {
	p.res.Attempted++
	if !ok {
		p.fail(format, args...)
	}
	return ok
}

// fail records one failed operation that was already counted.
func (p *pass) fail(format string, args ...any) {
	p.res.Failed++
	if len(p.res.Problems) < 20 {
		p.res.Problems = append(p.res.Problems, fmt.Sprintf(format, args...))
	}
}

func (p *pass) metric(name string, v float64) { p.res.Metrics[name] = v }

func (p *pass) layer(name string, v float64) {
	if p.res.Layers != nil {
		p.res.Layers[name] = v
	}
}

func (p *pass) report(name string, v float64, unit string, samples int, as string) {
	p.res.Named = append(p.res.Named, named{Name: name, Value: v, Unit: unit, Samples: samples, As: as})
}

var workloads = map[string]func(*pass) error{
	"batch":    runBatch,
	"classify": runClassify,
	"ingest":   runIngest,
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload to run: batch, classify or ingest")
	seed := fs.Uint64("seed", 1, "seed every input is generated from")
	seconds := fs.Int("seconds", 25, "length of the timed window")
	trace := fs.Int("trace", 0, "0: end-to-end metrics of an untraced run; 1: per-layer metrics of a traced run")
	work := fs.String("work", ".bench_build", "directory for scratch files and the traced run's spans")
	passFlag := fs.String("pass", "", "internal: run one pass (untraced or traced) and print its result as JSON")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if _, ok := workloads[*workload]; !ok {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (batch, classify, ingest)\n", *workload)
		return 2
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "perfbench: -seconds must be at least 1 and -trace 0 or 1")
		return 2
	}
	window := time.Duration(*seconds) * time.Second

	if *passFlag != "" {
		res, err := runPass(*workload, *seed, window, *work, *passFlag == "traced")
		if err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		if err := json.NewEncoder(stdout).Encode(res); err != nil {
			return 1
		}
		return 0
	}

	if *trace == 0 {
		res, err := runPass(*workload, *seed, window, *work, false)
		if err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		printReport(stdout, res)
		return emit(stdout, res.Attempted, res.Failed, endToEnd, res.Metrics)
	}

	// Traced: the untraced and the traced pass each run in a fresh child
	// process, so set-up time and peak RSS are comparable between them.
	var passes [2]*passResult
	for i, mode := range []string{"untraced", "traced"} {
		res, err := runChild(*workload, *seed, *seconds, *work, mode, stderr)
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: %s pass: %v\n", mode, err)
			return 1
		}
		passes[i] = res
	}
	untraced, traced := passes[0], passes[1]
	for _, m := range endToEnd {
		if u := untraced.Metrics[m.name]; u != 0 {
			traced.Layers["obs.trace_overhead."+m.name] = traced.Metrics[m.name] / u
		}
	}
	printReport(stdout, untraced)
	printReport(stdout, traced)
	printTable(stdout, traced)
	attempted := untraced.Attempted + traced.Attempted
	failed := untraced.Failed + traced.Failed
	return emit(stdout, attempted, failed, perLayer, traced.Layers)
}

// runPass runs one pass of a workload in this process.
func runPass(workload string, seed uint64, window time.Duration, work string, traced bool) (*passResult, error) {
	dir, err := os.MkdirTemp(mustMkdir(work), "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	p := &pass{
		workload: workload,
		seed:     seed,
		window:   window,
		work:     dir,
		res: &passResult{
			Workload: workload,
			Traced:   traced,
			Metrics:  map[string]float64{},
			Meta:     runMeta(seed, window),
		},
	}
	if traced {
		p.tr = newTracer()
		p.reg = obs.NewRegistry()
		p.res.Layers = map[string]float64{}
		for _, m := range perLayer {
			p.res.Layers[m.name] = 0
		}
	}
	if err := workloads[workload](p); err != nil {
		return nil, err
	}
	p.metric("peak_rss_mb", peakRSSMB())
	p.res.Meta["peak_rss_mb"] = p.res.Metrics["peak_rss_mb"]
	if traced {
		p.res.Table = p.tr.table()
		p.layer("bench.unattributed_s", p.tr.unattributed())
		path := filepath.Join(mustMkdir(filepath.Join(work, "traces")), fmt.Sprintf("%s-seed%d.jsonl", workload, seed))
		if err := p.tr.writeJSONL(path); err != nil {
			return nil, err
		}
		p.res.Meta["spans_file"] = path
	}
	return p.res, nil
}

// runChild runs one pass in a child process of this binary and returns
// its result.
func runChild(workload string, seed uint64, seconds int, work, mode string, stderr io.Writer) (*passResult, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	var out bytes.Buffer
	cmd := exec.Command(self, "-workload", workload, "-seed", strconv.FormatUint(seed, 10),
		"-seconds", strconv.Itoa(seconds), "-work", work, "-pass", mode)
	cmd.Stdout = &out
	cmd.Stderr = stderr
	if err := cmd.Run(); err != nil {
		return nil, err
	}
	var res passResult
	if err := json.Unmarshal(lastLine(out.Bytes()), &res); err != nil {
		return nil, fmt.Errorf("decoding child result: %w", err)
	}
	return &res, nil
}

func lastLine(b []byte) []byte {
	b = bytes.TrimRight(b, "\n")
	if i := bytes.LastIndexByte(b, '\n'); i >= 0 {
		return b[i+1:]
	}
	return b
}

// emit prints the result line and returns the exit code.
func emit(w io.Writer, attempted, failed int, defs []metricDef, values map[string]float64) int {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]value{}
	for _, m := range defs {
		v, ok := values[m.name]
		if !ok {
			fmt.Fprintf(os.Stderr, "perfbench: metric %s was not measured\n", m.name)
			return 1
		}
		metrics[m.name] = value{v, m.unit}
	}
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{failed == 0 && attempted > 0, attempted, failed, metrics})
	if err != nil {
		return 1
	}
	fmt.Fprintf(w, "%s\n", line)
	return 0
}

// printReport prints a pass's metadata, its failures and its metrics under
// the names the methodology gives them.
func printReport(w io.Writer, res *passResult) {
	mode := "untraced"
	if res.Traced {
		mode = "traced"
	}
	meta, _ := json.Marshal(res.Meta)
	fmt.Fprintf(w, "# %s %s run: %s\n", res.Workload, mode, meta)
	errRate := 0.0
	if res.Attempted > 0 {
		errRate = float64(res.Failed) / float64(res.Attempted)
	}
	fmt.Fprintf(w, "# %s %s: attempted %d, failed %d, error_rate %g\n", res.Workload, mode, res.Attempted, res.Failed, errRate)
	for _, p := range res.Problems {
		fmt.Fprintf(w, "#   failed: %s\n", p)
	}
	tw := tabwriter.NewWriter(w, 0, 4, 2, ' ', 0)
	for _, n := range res.Named {
		samples, as := "", ""
		if n.Samples > 0 {
			samples = fmt.Sprintf("n=%d", n.Samples)
		}
		if n.As != "" {
			as = "as " + n.As
		}
		fmt.Fprintf(tw, "#   %s\t%.6g\t%s\t%s\t%s\n", n.Name, n.Value, n.Unit, samples, as)
	}
	tw.Flush()
	if res.Traced {
		names := make([]string, 0, len(res.Layers))
		for k := range res.Layers {
			names = append(names, k)
		}
		sort.Strings(names)
		for _, k := range names {
			fmt.Fprintf(tw, "#   %s\t%.6g\n", k, res.Layers[k])
		}
		tw.Flush()
	}
}

// runMeta is the run metadata every result carries.
func runMeta(seed uint64, window time.Duration) map[string]any {
	return map[string]any{
		"seed":       seed,
		"window_s":   window.Seconds(),
		"commit":     commit(),
		"source":     sourceDigest(),
		"go":         runtime.Version(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"nproc":      runtime.NumCPU(),
		"cpu":        cpuModel(),
	}
}

// peakRSSMB returns the process's peak resident set size.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := bytes.Cut(sc.Bytes(), []byte(":")); ok && string(bytes.TrimSpace(k)) == "model name" {
			return string(bytes.TrimSpace(v))
		}
	}
	return "unknown"
}

func mustMkdir(dir string) string {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	return dir
}
