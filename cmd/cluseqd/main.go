// Command cluseqd is the CLUSEQ serving daemon: it loads trained model
// bundles (written by cluseq -model) from a directory and classifies
// sequences against them over HTTP, with atomic hot reload of retrained
// bundles and graceful drain on shutdown.
//
// Format-v3 bundles are served zero-copy from memory maps of the model
// files (disable with -mmap=false); v1/v2 bundles load by copying.
// Either way a reload is one atomic snapshot swap and the old mapping
// is released only after its last in-flight reader finishes. Bundle
// files must therefore be replaced atomically (temp file + rename),
// which cluseq -model and -stream-persist both do.
//
// With -stream the daemon additionally runs an incremental clustering
// engine: POST /v1/ingest feeds it sequences, and every consolidation
// publishes a frozen snapshot into the registry under -stream-model, so
// /v1/classify serves the evolving stream model next to the file-loaded
// bundles. With -stream-persist DIR each published snapshot is also
// written (asynchronously, atomically) to DIR, and a restarted daemon
// resumes the stream model — clusters, threshold, version counter —
// from the last persisted snapshot.
//
// Usage:
//
//	cluseqd -models DIR [-addr :8080] [-timeout 30s] [-max-batch 1024]
//	        [-workers N] [-drain 10s] [-pprof] [-mmap=false] [-v]
//	        [-stream -stream-alphabet SYMS [-stream-model NAME]
//	         [-stream-threshold T] [-stream-consolidate N]
//	         [-stream-flush D] [-stream-persist DIR]] [-trace-out FILE]
//	        [-trace-ring N] [-trace-topk K] [-trace-sample R]
//	        [-trace-slow D] [-trace-seed S] [-slo SPEC]...
//
// Endpoints (see internal/server for the full contract):
//
//	POST /v1/classify       {"model":"name","sequence":"acgt"} or
//	                        {"model":"name","sequences":["acgt",...]}
//	GET  /v1/models         loaded models with parameters and tree sizes
//	POST /v1/models/reload  rescan the model directory
//	POST /v1/ingest         {"sequence":"acgt"} or {"sequences":[...]},
//	                        only with -stream
//	GET  /v1/ingest/stats   streaming engine counters, only with -stream
//	GET  /healthz, /readyz  liveness and readiness
//	GET  /metrics           request/error/latency/outlier counters as
//	                        Prometheus text exposition
//	GET  /debug/traces      flight recorder dump: recent and slowest
//	                        retained request and job traces (?route=,
//	                        ?min_ms=)
//	GET  /debug/pprof/      Go runtime profiles, only with -pprof
//
// Every /v1/ request carries a W3C trace context: an inbound traceparent
// header is adopted (and its sampled flag forces retention), the trace ID
// is echoed in the X-Trace-ID response header, and retained traces land
// in the always-on in-memory flight recorder behind GET /debug/traces.
// Slow (>= -trace-slow) and error traces are always retained; the rest
// are head-sampled at -trace-sample by a deterministic seeded sampler
// (0 keeps none of them). Each stream consolidation is a job trace on
// the same recorder, always retained; one triggered by a traced ingest
// is that request's child. With -trace-out every retained trace is
// appended as JSONL spans, and SIGUSR1 dumps the whole flight recorder
// (its ring and its slowest index) to the same sink. Repeatable
// -slo flags (route=classify,latency=250ms,target=0.99,
// max_error_rate=0.01) export cluseqd_slo_* burn-rate gauges computed
// from the route latency histograms at scrape time.
//
// On SIGINT or SIGTERM the daemon stops accepting connections and gives
// in-flight requests up to -drain to complete before exiting.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"cluseq"
)

func main() {
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	os.Exit(run(os.Args[1:], os.Stderr, sig, nil))
}

// sloFlag collects repeated -slo flags, parsing each spec as it arrives
// so a malformed objective fails flag parsing (exit 2) with the offending
// spec in the error, not later at server construction.
type sloFlag struct {
	specs []string
	slos  []cluseq.SLO
}

func (f *sloFlag) String() string { return strings.Join(f.specs, "; ") }

func (f *sloFlag) Set(spec string) error {
	slo, err := cluseq.ParseSLO(spec)
	if err != nil {
		return err
	}
	f.specs = append(f.specs, spec)
	f.slos = append(f.slos, slo)
	return nil
}

// run is main minus process concerns: signals arrive on sig, and the
// bound listen address is announced on ready (when non-nil) so tests can
// drive a daemon on port 0.
func run(args []string, stderr io.Writer, sig <-chan os.Signal, ready chan<- string) int {
	fs := flag.NewFlagSet("cluseqd", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr      = fs.String("addr", ":8080", "listen address")
		models    = fs.String("models", "", "directory of *"+cluseq.ModelBundleExt+" model bundles (required)")
		timeout   = fs.Duration("timeout", 30*time.Second, "per-request timeout (0 = none)")
		maxBatch  = fs.Int("max-batch", 1024, "maximum sequences per classify request")
		workers   = fs.Int("workers", 0, "classification parallelism shared across requests (0 = all CPUs)")
		drain     = fs.Duration("drain", 10*time.Second, "shutdown drain deadline for in-flight requests")
		verbose   = fs.Bool("v", false, "log per-request refusals and reloads")
		withPprof = fs.Bool("pprof", false, "expose net/http/pprof under /debug/pprof/ (opt-in: profiling endpoints leak internals)")
		useMmap   = fs.Bool("mmap", true, "serve v3 model bundles zero-copy from memory-mapped files (bundle rewrites must be atomic: temp file + rename)")
		slow      = fs.Duration("slow-classify", 0, "inject an artificial delay into every classify request (load-harness testing aid; never set in production)")

		streamOn    = fs.Bool("stream", false, "enable the incremental clustering engine and POST /v1/ingest")
		streamAlpha = fs.String("stream-alphabet", "", "alphabet runes for the streaming engine (required with -stream)")
		streamModel = fs.String("stream-model", "stream", "registry name the streaming engine publishes its snapshots under")
		streamThr   = fs.Float64("stream-threshold", 0, "initial similarity threshold t for the streaming engine (0 = default)")
		streamEvery = fs.Int("stream-consolidate", 0, "streaming consolidation cadence in ingests (0 = default)")
		streamFlush = fs.Duration("stream-flush", 0, "also consolidate an idle stream on this wall-clock interval (0 = off)")
		streamDir   = fs.String("stream-persist", "", "persist each published stream snapshot into this directory and resume from it on restart (keep it outside -models; the published name owns the registry slot)")
		traceOut    = fs.String("trace-out", "", "append JSONL spans to this file: streaming consolidation phases plus every retained request trace (and flight-recorder dumps on SIGUSR1)")

		traceRing   = fs.Int("trace-ring", 256, "flight recorder ring size: retained request traces kept for GET /debug/traces")
		traceTopK   = fs.Int("trace-topk", 16, "flight recorder slowest-request index size (survives ring churn)")
		traceSample = fs.Float64("trace-sample", 0.01, "head-sampling rate for fast, successful request traces in [0,1]; slow and error traces are always retained")
		traceSlow   = fs.Duration("trace-slow", 250*time.Millisecond, "duration at or above which a request trace is always retained")
		traceSeed   = fs.Uint64("trace-seed", 0, "seed for the deterministic trace sampler (0 = default; identical seeds keep identical trace IDs)")
	)
	var sloSpecs sloFlag
	fs.Var(&sloSpecs, "slo", "declare a route SLO exported as cluseqd_slo_* burn-rate gauges, e.g. route=classify,latency=250ms,target=0.99,max_error_rate=0.01 (repeatable)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *models == "" || fs.NArg() > 0 {
		fmt.Fprintln(stderr, "usage: cluseqd -models DIR [flags]")
		return 2
	}

	logf := func(format string, args ...any) {
		fmt.Fprintf(stderr, format+"\n", args...)
	}
	reg, rep, err := cluseq.OpenModelRegistryWith(*models, cluseq.RegistryOptions{Mmap: *useMmap})
	if err != nil {
		fmt.Fprintln(stderr, "cluseqd:", err)
		return 1
	}
	for name, msg := range rep.Failed {
		logf("cluseqd: model %s failed to load: %s", name, msg)
	}
	logf("cluseqd: %d models loaded from %s", reg.Len(), *models)

	// One metrics registry spans the server, the model registry, and the
	// streaming engine, so GET /metrics is a single exposition.
	met := cluseq.NewMetrics()
	var tracer *cluseq.Tracer
	if *traceOut != "" {
		f, err := os.OpenFile(*traceOut, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			fmt.Fprintln(stderr, "cluseqd:", err)
			return 1
		}
		defer f.Close()
		tracer = cluseq.NewTracer(f)
		defer func() {
			if err := tracer.Err(); err != nil {
				fmt.Fprintln(stderr, "cluseqd: trace:", err)
			}
		}()
	}
	// The flight recorder is always on, and one recorder holds both the
	// request traces and the stream's consolidation jobs: retained
	// traces are readable at GET /debug/traces, dumped to -trace-out on
	// SIGUSR1, and (when -trace-out is set) appended as JSONL at finish
	// time.
	flight := cluseq.NewFlight(cluseq.FlightConfig{
		RingSize:      *traceRing,
		TopK:          *traceTopK,
		SampleRate:    *traceSample,
		SlowThreshold: *traceSlow,
		Seed:          *traceSeed,
		Tracer:        tracer,
		Obs:           met,
	})

	var eng *cluseq.StreamEngine
	if *streamOn {
		if *streamAlpha == "" {
			fmt.Fprintln(stderr, "cluseqd: -stream requires -stream-alphabet")
			return 2
		}
		alpha, err := cluseq.NewAlphabet(*streamAlpha)
		if err != nil {
			fmt.Fprintln(stderr, "cluseqd:", err)
			return 1
		}
		name := *streamModel
		// Durability: resume from the last persisted snapshot (serving it
		// immediately, before the first consolidation), and persist every
		// published snapshot asynchronously so a slow disk never stalls an
		// ingest. A corrupt or mismatched persisted bundle logs and starts
		// the stream fresh rather than keeping the daemon down.
		var (
			resume  *cluseq.Classifier
			persist *persister
		)
		if *streamDir != "" {
			if err := os.MkdirAll(*streamDir, 0o755); err != nil {
				fmt.Fprintln(stderr, "cluseqd:", err)
				return 1
			}
			path := filepath.Join(*streamDir, name+cluseq.ModelBundleExt)
			if f, err := os.Open(path); err == nil {
				clf, lerr := cluseq.LoadClassifier(f)
				f.Close()
				if lerr != nil {
					logf("cluseqd: persisted stream model %s unusable (%v), starting fresh", path, lerr)
				} else {
					resume = clf
					if perr := reg.Publish(name, clf, clf.PublishedVersion()); perr != nil {
						fmt.Fprintln(stderr, "cluseqd:", perr)
						return 1
					}
					logf("cluseqd: resumed stream model %q v%d from %s", name, clf.PublishedVersion(), path)
				}
			} else if !os.IsNotExist(err) {
				fmt.Fprintln(stderr, "cluseqd:", err)
				return 1
			}
			persist = newPersister(path, logf)
			defer persist.stop()
		}
		eng, err = cluseq.NewStreamEngine(cluseq.StreamOptions{
			Alphabet:            alpha,
			SimilarityThreshold: *streamThr,
			ConsolidateEvery:    *streamEvery,
			FlushInterval:       *streamFlush,
			Workers:             *workers,
			Resume:              resume,
			// Each consolidation's frozen snapshot goes straight into the
			// serving registry: one atomic swap, readers never blocked. The
			// persister gets the same snapshot through its non-blocking
			// mailbox.
			Publish: func(clf *cluseq.Classifier, version uint64) {
				if err := reg.Publish(name, clf, version); err != nil {
					logf("cluseqd: publishing stream model %s v%d: %v", name, version, err)
				}
				if persist != nil {
					persist.offer(clf, version)
				}
			},
			Obs:    met,
			Flight: flight,
			Logf:   logf,
		})
		if err != nil {
			fmt.Fprintln(stderr, "cluseqd:", err)
			return 1
		}
		defer eng.Close()
		logf("cluseqd: streaming ingest enabled, publishing model %q", name)
	}

	scfg := cluseq.ServerConfig{
		Registry:      reg,
		MaxBatch:      *maxBatch,
		Workers:       *workers,
		Timeout:       *timeout,
		ClassifyDelay: *slow,
		Obs:           met,
		Stream:        eng,
		Flight:        flight,
		SLOs:          sloSpecs.slos,
	}
	if *slow > 0 {
		logf("cluseqd: WARNING: -slow-classify %v injects artificial latency (testing aid)", *slow)
	}
	if *verbose {
		scfg.Logf = logf
	}
	srv, err := cluseq.NewServer(scfg)
	if err != nil {
		fmt.Fprintln(stderr, "cluseqd:", err)
		return 1
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(stderr, "cluseqd:", err)
		return 1
	}
	handler := srv.Handler()
	if *withPprof {
		// Mount the pprof handlers on an explicit mux rather than serving
		// http.DefaultServeMux, so nothing else registered there leaks.
		mux := http.NewServeMux()
		mux.Handle("/", handler)
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		handler = mux
		logf("cluseqd: pprof enabled under /debug/pprof/")
	}
	httpSrv := &http.Server{
		Handler:           handler,
		ReadHeaderTimeout: 10 * time.Second,
	}
	logf("cluseqd: listening on %s", ln.Addr())
	if ready != nil {
		ready <- ln.Addr().String()
	}

	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()

	// SIGUSR1 dumps the flight recorder to the -trace-out sink without
	// disturbing serving — the incident-triage path when /debug/traces
	// is unreachable (e.g. the port is drowning in traffic).
	usr1 := make(chan os.Signal, 1)
	signal.Notify(usr1, syscall.SIGUSR1)
	defer signal.Stop(usr1)

serve:
	for {
		select {
		case err := <-serveErr:
			fmt.Fprintln(stderr, "cluseqd:", err)
			return 1
		case <-usr1:
			if tracer == nil {
				logf("cluseqd: SIGUSR1 received but no -trace-out sink is configured")
				continue
			}
			n := flight.WriteJSONL(tracer, cluseq.TraceFilter{})
			logf("cluseqd: SIGUSR1: dumped %d flight-recorder traces to -trace-out", n)
		case s := <-sig:
			logf("cluseqd: %v received, draining for up to %v", s, *drain)
			break serve
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	err = httpSrv.Shutdown(ctx)
	if eng != nil {
		// Flush the partial consolidation window so the final snapshot —
		// including the stream's tail — is published and persisted before
		// the deferred engine close and persister stop run.
		eng.ConsolidateNow()
	}
	if err != nil {
		// Drain deadline expired with requests still in flight.
		httpSrv.Close()
		fmt.Fprintln(stderr, "cluseqd: forced shutdown:", err)
		return 1
	}
	logf("cluseqd: drained cleanly")
	return 0
}
