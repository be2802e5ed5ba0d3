// Package server implements the HTTP API of the cluseqd serving daemon:
// online classification of sequences against the models of a
// hot-reloadable registry.
//
// # Endpoints
//
//	POST /v1/classify       classify one sequence or a batch against a model
//	GET  /v1/models         list loaded models with parameters and tree sizes
//	POST /v1/models/reload  rescan the model directory (atomic hot reload)
//	POST /v1/ingest         feed one sequence or a batch into the streaming
//	                        clustering engine (requires -stream; per-item
//	                        accept / new-cluster / reject verdicts)
//	GET  /v1/ingest/stats   streaming engine counters, threshold, drift
//	GET  /healthz           liveness (always 200 while the process serves)
//	GET  /readyz            readiness (200 once ≥ 1 model is loaded, else 503)
//	GET  /metrics           the metrics registry as Prometheus text
//	                        exposition (format 0.0.4): requests, errors,
//	                        per-model classifications, outliers, route
//	                        latency, SLO and Go runtime gauges
//	GET  /debug/traces      the flight recorder: recent and slowest
//	                        retained request and job traces
//
// Every response carries an X-Request-ID header (echoing the caller's,
// or generated), the same ID appears in the access log and in JSON
// error bodies, and one access-log line is emitted per request.
//
// Batch classification fans the request's sequences across a bounded
// worker pool shared by all in-flight requests; the request's own
// goroutine always participates, so a large batch can saturate every
// core without ever blocking a concurrent small request (see
// internal/pool).
package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"time"

	"cluseq/internal/obs"
	"cluseq/internal/pool"
	"cluseq/internal/registry"
	"cluseq/internal/stream"
)

// Config parameterizes New.
type Config struct {
	// Registry supplies the models; required.
	Registry *registry.Registry
	// MaxBatch caps the number of sequences in one classify request;
	// larger batches are refused with 413. Default 1024.
	MaxBatch int
	// MaxBodyBytes caps a request body. Default 32 MiB.
	MaxBodyBytes int64
	// Workers bounds the classification parallelism shared across all
	// in-flight requests: Workers−1 helper goroutines plus each
	// request's own. 0 uses GOMAXPROCS; 1 classifies serially on the
	// request goroutine.
	Workers int
	// Timeout, when positive, bounds each API request end to end
	// (503 with a JSON error on expiry). Health and metrics endpoints
	// are exempt.
	Timeout time.Duration
	// Logf, when non-nil, receives one access-log line per request plus
	// one line per reload and per refused request.
	Logf func(format string, args ...any)
	// Obs, when non-nil, is the metrics registry the server records into
	// and exposes at GET /metrics — share one registry across server,
	// model registry, and pool to get a single exposition. Nil creates a
	// private registry, so metrics always work.
	Obs *obs.Registry
	// ClassifyDelay, when positive, injects an artificial sleep at the
	// start of every classify request. It exists solely for the load
	// harness: the CI loadperf gate starts a deliberately slowed daemon
	// and asserts the latency-regression comparator fires (see
	// benchmarks/README.md). Never set it in production.
	ClassifyDelay time.Duration
	// Flight, when non-nil, is the trace flight recorder the server
	// begins and finishes request traces against (see obs.Flight); pass
	// the one the stream engine records its consolidation jobs on to see
	// both in GET /debug/traces. Nil builds a default always-on recorder
	// (256-trace ring, top-16 slowest, 1% head sampling, 250ms slow
	// threshold) wired to Obs — pass a configured one to change sampling
	// or attach a JSONL sink.
	Flight *obs.Flight
	// SLOs declares the service-level objectives exported as
	// cluseqd_slo_* burn-rate gauges (see SLO and ParseSLO). Empty means
	// no SLO series.
	SLOs []SLO
	// Stream, when non-nil, enables POST /v1/ingest and
	// GET /v1/ingest/stats against the given incremental clustering
	// engine. The engine publishes its snapshots into Registry itself
	// (wire its Publish callback to Registry.Publish); the server only
	// routes ingest traffic to it. Without it the ingest endpoints answer
	// 503.
	Stream *stream.Engine
}

// Server routes the API. Construct with New; safe for concurrent use.
type Server struct {
	reg           *registry.Registry
	maxBatch      int
	maxBodyBytes  int64
	timeout       time.Duration
	classifyDelay time.Duration
	pool          *pool.Pool
	metrics       *metrics
	stream        *stream.Engine
	flight        *obs.Flight
	slos          []SLO
	goStats       *goStats
	logf          func(format string, args ...any)

	// classifyHook, when non-nil, runs at the start of every classify
	// request — test instrumentation for shutdown/race tests.
	classifyHook func()
}

// New validates the configuration and returns a Server.
func New(cfg Config) (*Server, error) {
	if cfg.Registry == nil {
		return nil, fmt.Errorf("server: Config.Registry is required")
	}
	if cfg.MaxBatch == 0 {
		cfg.MaxBatch = 1024
	}
	if cfg.MaxBatch < 1 {
		return nil, fmt.Errorf("server: MaxBatch must be positive, got %d", cfg.MaxBatch)
	}
	if cfg.MaxBodyBytes == 0 {
		cfg.MaxBodyBytes = 32 << 20
	}
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	logf := cfg.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	s := &Server{
		reg:           cfg.Registry,
		maxBatch:      cfg.MaxBatch,
		maxBodyBytes:  cfg.MaxBodyBytes,
		timeout:       cfg.Timeout,
		classifyDelay: cfg.ClassifyDelay,
		pool:          pool.New(cfg.Workers - 1),
		metrics:       newMetrics(cfg.Obs),
		stream:        cfg.Stream,
		flight:        cfg.Flight,
		slos:          cfg.SLOs,
		logf:          logf,
	}
	if s.flight == nil {
		s.flight = obs.NewFlight(obs.FlightConfig{SampleRate: 0.01, Obs: s.metrics.reg})
	}
	s.goStats = newGoStats(s.metrics.reg)
	s.pool.Instrument(s.metrics.reg, "cluseqd_pool")
	s.reg.Instrument(s.metrics.reg)
	s.updateModelGauges()
	return s, nil
}

// updateModelGauges refreshes the per-model size gauges from each
// loaded classifier. Called at construction and after every successful
// reload — Info walks every tree, far too costly per request. A model
// that is removed keeps its last gauge values (obs series are never
// unregistered); the cluseq_registry_models gauge is authoritative for
// what is live.
func (s *Server) updateModelGauges() {
	for _, m := range s.reg.Models() {
		info := m.Classifier.Info()
		reg := s.metrics.reg
		reg.Gauge("cluseqd_model_clusters", "model", m.Name).Set(float64(info.Clusters))
		reg.Gauge("cluseqd_model_pst_nodes", "model", m.Name).Set(float64(info.TotalNodes))
		reg.Gauge("cluseqd_model_threshold", "model", m.Name).Set(info.Threshold)
		reg.Gauge("cluseqd_model_mapped_bytes", "model", m.Name).Set(float64(m.MappedBytes))
	}
}

// Handler returns the daemon's root handler.
func (s *Server) Handler() http.Handler {
	api := http.NewServeMux()
	api.HandleFunc("POST /v1/classify", s.handleClassify)
	api.HandleFunc("GET /v1/models", s.handleModels)
	api.HandleFunc("POST /v1/models/reload", s.handleReload)
	api.HandleFunc("POST /v1/ingest", s.handleIngest)
	api.HandleFunc("GET /v1/ingest/stats", s.handleIngestStats)
	// finishTrace sits inside the timeout wrapper so a timed-out
	// handler's trace still finishes on its own goroutine (see
	// finishTrace for the pooling-safety argument).
	var apiHandler http.Handler = s.finishTrace(api)
	if s.timeout > 0 {
		// TimeoutHandler replies 503 and discards the handler's late
		// writes; the JSON body keeps the error shape uniform.
		msg, _ := json.Marshal(errorBody{Error: "request timed out"})
		apiHandler = http.TimeoutHandler(apiHandler, s.timeout, string(msg))
	}
	root := http.NewServeMux()
	root.Handle("/v1/", apiHandler)
	root.HandleFunc("GET /healthz", s.handleHealthz)
	root.HandleFunc("GET /readyz", s.handleReadyz)
	root.HandleFunc("GET /metrics", s.handleMetrics)
	root.HandleFunc("GET /debug/traces", s.handleDebugTraces)
	return s.withRequestID(root)
}

// Obs returns the metrics registry the server records into (the one
// from Config.Obs, or the private one created in its absence).
func (s *Server) Obs() *obs.Registry { return s.metrics.reg }

// Registry returns the server's model registry.
func (s *Server) Registry() *registry.Registry { return s.reg }

type errorBody struct {
	Error string `json:"error"`
	// RequestID echoes the request's correlation ID so a client log line
	// can be matched to the daemon's without comparing timestamps.
	RequestID string `json:"request_id,omitempty"`
}

// fail writes a JSON error (carrying the request's correlation ID) and
// bumps the error counter for its class.
func (s *Server) fail(w http.ResponseWriter, r *http.Request, code int, class, format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	s.metrics.countError(class)
	id := RequestID(r.Context())
	s.logf("server: %d %s: %s id=%s", code, class, msg, id)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(errorBody{Error: msg, RequestID: id})
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(v)
}

// ClassifyRequest is the body of POST /v1/classify. Exactly one of
// Sequence and Sequences must be set.
type ClassifyRequest struct {
	// Model names the bundle to classify against.
	Model string `json:"model"`
	// Sequence is the single-classification form.
	Sequence string `json:"sequence,omitempty"`
	// Sequences is the batch form.
	Sequences []string `json:"sequences,omitempty"`
}

// ClassifyResult is one sequence's outcome.
type ClassifyResult struct {
	// Cluster is the best cluster index, or −1 for an outlier.
	Cluster int `json:"cluster"`
	// Outlier mirrors Cluster == −1 for readability.
	Outlier bool `json:"outlier,omitempty"`
	// Similarity is the per-symbol normalized similarity to the best
	// cluster.
	Similarity float64 `json:"similarity"`
	// Memberships lists every cluster whose threshold the sequence
	// clears.
	Memberships []int `json:"memberships,omitempty"`
	// Error is set (and the other fields zero) when this sequence could
	// not be classified, e.g. a rune outside the model's alphabet. A
	// bad sequence fails alone, not the whole batch.
	Error string `json:"error,omitempty"`
}

// ClassifyResponse is the body answering POST /v1/classify.
type ClassifyResponse struct {
	Model string `json:"model"`
	// Results is index-aligned with the request's sequences (the single
	// form yields one entry).
	Results  []ClassifyResult `json:"results"`
	Outliers int              `json:"outliers"`
	// ElapsedMs is the server-side classification time.
	ElapsedMs float64 `json:"elapsed_ms"`
}

func (s *Server) handleClassify(w http.ResponseWriter, r *http.Request) {
	if s.classifyHook != nil {
		s.classifyHook()
	}
	if s.classifyDelay > 0 {
		// Load-harness slowdown injection; see Config.ClassifyDelay.
		time.Sleep(s.classifyDelay)
	}
	start := time.Now()
	tr := obs.TraceFromContext(r.Context())

	var req ClassifyRequest
	body := http.MaxBytesReader(w, r.Body, s.maxBodyBytes)
	dec := tr.StartSpan("classify_decode")
	err := json.NewDecoder(body).Decode(&req)
	dec.End()
	if err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			s.fail(w, r, http.StatusRequestEntityTooLarge, "too_large", "request body exceeds %d bytes", s.maxBodyBytes)
			return
		}
		s.fail(w, r, http.StatusBadRequest, "bad_request", "malformed JSON: %v", err)
		return
	}
	if req.Model == "" {
		s.fail(w, r, http.StatusBadRequest, "bad_request", `missing "model"`)
		return
	}
	single := req.Sequence != ""
	if single && len(req.Sequences) > 0 {
		s.fail(w, r, http.StatusBadRequest, "bad_request", `set either "sequence" or "sequences", not both`)
		return
	}
	seqs := req.Sequences
	if single {
		seqs = []string{req.Sequence}
	}
	if len(seqs) == 0 {
		s.fail(w, r, http.StatusBadRequest, "bad_request", `missing "sequence" or "sequences"`)
		return
	}
	if len(seqs) > s.maxBatch {
		s.fail(w, r, http.StatusRequestEntityTooLarge, "too_large", "batch of %d exceeds the %d-sequence limit", len(seqs), s.maxBatch)
		return
	}
	s.metrics.batchSize.Observe(float64(len(seqs)))
	m, ok := s.reg.GetTraced(tr, req.Model)
	if !ok {
		s.fail(w, r, http.StatusNotFound, "not_found", "unknown model %q", req.Model)
		return
	}

	// Fan the batch across the shared pool. The model snapshot (m) is
	// pinned for the whole request: a concurrent hot reload swaps the
	// registry map but cannot mutate or retire this classifier.
	ctx := r.Context()
	results := make([]ClassifyResult, len(seqs))
	scan := tr.StartSpan("classify_scan")
	s.pool.Run(len(seqs), func(i int) {
		// Each item's arena scan is a child span; concurrent workers
		// claim distinct slots lock-free, and a batch larger than the
		// span cap degrades to a dropped-spans count, never blocking.
		msp := tr.StartSpanUnder(scan, "classify_model")
		defer msp.End()
		if ctx.Err() != nil {
			results[i] = ClassifyResult{Cluster: -1, Error: "request canceled"}
			return
		}
		a, err := m.Classifier.ClassifyString(seqs[i])
		if err != nil {
			results[i] = ClassifyResult{Cluster: -1, Error: err.Error()}
			return
		}
		results[i] = ClassifyResult{
			Cluster:     a.Cluster,
			Outlier:     a.Cluster == -1,
			Similarity:  a.Similarity,
			Memberships: a.Memberships,
		}
	})
	scan.End()

	resp := ClassifyResponse{Model: req.Model, Results: results}
	classified := 0
	for _, res := range results {
		if res.Error != "" {
			continue
		}
		classified++
		if res.Outlier {
			resp.Outliers++
		}
	}
	s.metrics.sequences.Add(int64(classified))
	s.metrics.outliers.Add(int64(resp.Outliers))
	s.metrics.countClassifications(req.Model, int64(classified))
	resp.ElapsedMs = float64(time.Since(start)) / float64(time.Millisecond)
	enc := tr.StartSpan("classify_encode")
	writeJSON(w, resp)
	enc.End()
}

// ModelEntry is one model in the GET /v1/models listing.
type ModelEntry struct {
	Name     string    `json:"name"`
	File     string    `json:"file"`
	LoadedAt time.Time `json:"loaded_at"`
	// Info carries the model's parameters and per-cluster tree sizes
	// (core.ModelInfo).
	Info any `json:"info"`
}

func (s *Server) handleModels(w http.ResponseWriter, r *http.Request) {
	models := s.reg.Models()
	out := struct {
		Models []ModelEntry `json:"models"`
	}{Models: make([]ModelEntry, 0, len(models))}
	for _, m := range models {
		out.Models = append(out.Models, ModelEntry{
			Name:     m.Name,
			File:     m.Path,
			LoadedAt: m.LoadedAt,
			Info:     m.Classifier.Info(),
		})
	}
	writeJSON(w, out)
}

func (s *Server) handleReload(w http.ResponseWriter, r *http.Request) {
	rep, err := s.reg.Reload()
	if err != nil {
		s.fail(w, r, http.StatusInternalServerError, "internal", "reload: %v", err)
		return
	}
	s.updateModelGauges()
	s.logf("server: reload #%d: %d loaded, %d kept, %d removed, %d failed",
		s.reg.Generation(), len(rep.Loaded), len(rep.Kept), len(rep.Removed), len(rep.Failed))
	writeJSON(w, rep)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if s.reg.Len() == 0 {
		s.metrics.countError("unavailable")
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, "no models loaded")
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ready")
}

// handleMetrics writes the registry as Prometheus text, the only
// exposition. Any format query is ignored, so scrapers that still ask
// for ?format=prom keep working.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	s.metrics.uptime.Set(time.Since(s.metrics.start).Seconds())
	// Scrape-time refreshes: SLO burn rates from the route histograms,
	// Go runtime telemetry from runtime/metrics.
	s.updateSLOGauges()
	s.goStats.refresh()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	if err := s.metrics.reg.WritePrometheus(w); err != nil {
		s.logf("server: writing prometheus exposition: %v", err)
	}
}
