package loadgen

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"time"

	"cluseq/internal/obs"
	"cluseq/internal/pool"
)

// Runner executes scenarios against one target server.
type Runner struct {
	// BaseURL roots the target's API, e.g. "http://127.0.0.1:8080".
	BaseURL string
	// Client, when non-nil, overrides the HTTP client. The default
	// enables enough idle connections to keep MaxInflight requests on
	// warm keep-alive sockets, so connection setup does not pollute the
	// latency distribution.
	Client *http.Client
	// Workers, when positive, overrides the scenario's MaxInflight.
	Workers int
	// Validate decodes every classify response and checks that the
	// result count matches the request's batch size (order-preservation
	// smoke check). Costs CPU on the generator; off by default.
	Validate bool
	// ScrapeTarget, when set, fetches the target's GET /metrics after
	// the run and embeds its request counters in the result, so
	// client-observed and server-observed counts can be cross-checked.
	ScrapeTarget bool
	// TraceSlowest, when positive, sends a deterministic W3C traceparent
	// on every request (derived from the scenario seed and the schedule
	// index, so reruns offer identical trace IDs) and records the trace
	// IDs of the K slowest responses in the result — naming the exact
	// traces to pull from the target's GET /debug/traces afterwards. The
	// traceparent is sent unsampled: retention stays the target's own
	// tail policy, so a load run does not force-retain every request.
	TraceSlowest int
	// Logf, when non-nil, receives progress lines.
	Logf func(format string, args ...any)
}

// sample is one request's outcome, written by exactly one pool worker
// at its own schedule index.
type sample struct {
	status    int // HTTP status; 0 = transport error
	latencyMs float64
	lateMs    float64 // dispatch lag behind the scheduled arrival
	badResp   bool    // response decoded but failed validation
	traceID   string  // the response's X-Trace-ID, when tracing is on
}

// classifyBody mirrors the server's ClassifyRequest JSON shape without
// importing internal/server (the runner must drive any HTTP target,
// including test stubs).
type classifyBody struct {
	Model     string   `json:"model"`
	Sequence  string   `json:"sequence,omitempty"`
	Sequences []string `json:"sequences,omitempty"`
}

// ingestBody mirrors the server's IngestRequest JSON shape, again
// without the internal/server import.
type ingestBody struct {
	Sequence  string   `json:"sequence,omitempty"`
	Sequences []string `json:"sequences,omitempty"`
}

// classifyReply is the subset of the server's response the optional
// validation pass reads; /v1/ingest answers the same index-aligned
// "results" array, so one shape validates both.
type classifyReply struct {
	Results []json.RawMessage `json:"results"`
}

// Run replays the scenario against the target and reduces the
// per-request samples into a Result. The schedule is executed open
// loop: each request fires at its precomputed arrival offset (or as
// soon after as a worker frees up — the lag is recorded, never
// absorbed into the offered schedule).
func (r *Runner) Run(sc *Scenario) (*Result, error) {
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	if r.BaseURL == "" {
		return nil, fmt.Errorf("loadgen: Runner.BaseURL is required")
	}
	schedule := sc.Schedule()
	if len(schedule) == 0 {
		return nil, fmt.Errorf("loadgen: scenario %q schedules no requests (rate %v over %vs)",
			sc.Name, sc.RatePerSec, sc.DurationSec)
	}
	seqs := sc.Sequences()
	workers := sc.MaxInflight
	if r.Workers > 0 {
		workers = r.Workers
	}
	client := r.Client
	if client == nil {
		client = &http.Client{
			Transport: &http.Transport{
				MaxIdleConns:        workers + 8,
				MaxIdleConnsPerHost: workers + 8,
			},
		}
	}
	r.logf("loadgen: scenario %s: %d requests over %.1fs (offered %.0f rps, %d workers)",
		sc.Name, len(schedule), sc.DurationSec, sc.RatePerSec, workers)

	samples := make([]sample, len(schedule))
	p := pool.New(workers - 1)
	start := time.Now()
	p.Run(len(schedule), func(i int) {
		req := schedule[i]
		if wait := req.At - time.Since(start); wait > 0 {
			time.Sleep(wait)
		}
		late := time.Since(start) - req.At
		samples[i] = r.fire(client, sc, seqs, req, i)
		samples[i].lateMs = float64(late) / float64(time.Millisecond)
	})
	wall := time.Since(start)

	res := reduce(sc, schedule, samples, wall, r.TraceSlowest)
	if r.ScrapeTarget {
		res.Server = r.scrape()
	}
	r.logf("loadgen: scenario %s: %d/%d ok, %.0f rps achieved, p99 %.2fms",
		sc.Name, res.Overall.Requests-errorTotal(res), res.RequestsSent, res.ThroughputRPS, res.Overall.P99Ms)
	return res, nil
}

// fire sends one scheduled request and reports its outcome. idx is the
// request's schedule index, which keys its deterministic trace context.
func (r *Runner) fire(client *http.Client, sc *Scenario, seqs []string, req Request, idx int) sample {
	var (
		url  string
		body []byte
	)
	switch req.Kind {
	case KindReload:
		url = r.BaseURL + "/v1/models/reload"
	case KindIngest:
		ib := ingestBody{}
		if req.Batch <= 1 {
			ib.Sequence = seqs[req.Seq%len(seqs)]
		} else {
			ib.Sequences = make([]string, req.Batch)
			for k := range ib.Sequences {
				ib.Sequences[k] = seqs[(req.Seq+k)%len(seqs)]
			}
		}
		var err error
		if body, err = json.Marshal(ib); err != nil {
			return sample{} // unreachable: the body is plain strings
		}
		url = r.BaseURL + "/v1/ingest"
	default:
		cb := classifyBody{Model: sc.Model}
		if req.Kind == KindSingle {
			cb.Sequence = seqs[req.Seq%len(seqs)]
		} else {
			cb.Sequences = make([]string, req.Batch)
			for k := range cb.Sequences {
				cb.Sequences[k] = seqs[(req.Seq+k)%len(seqs)]
			}
		}
		var err error
		if body, err = json.Marshal(cb); err != nil {
			return sample{} // unreachable: the body is plain strings
		}
		url = r.BaseURL + "/v1/classify"
	}

	hreq, err := http.NewRequest("POST", url, bytes.NewReader(body))
	if err != nil {
		return sample{} // unreachable: the URL is built above
	}
	hreq.Header.Set("Content-Type", "application/json")
	if r.TraceSlowest > 0 {
		hreq.Header.Set("traceparent", traceparentFor(sc.Seed, idx))
	}
	t0 := time.Now()
	resp, err := client.Do(hreq)
	if err != nil {
		return sample{status: 0, latencyMs: float64(time.Since(t0)) / float64(time.Millisecond)}
	}
	s := sample{status: resp.StatusCode, traceID: resp.Header.Get("X-Trace-ID")}
	if r.Validate && req.Kind != KindReload && resp.StatusCode == http.StatusOK {
		// Both classify and ingest answer index-aligned results arrays.
		var reply classifyReply
		if decErr := json.NewDecoder(resp.Body).Decode(&reply); decErr != nil || len(reply.Results) != req.Batch {
			s.badResp = true
		}
	}
	// Latency covers the full exchange including body drain, matching
	// what a real client experiences.
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	s.latencyMs = float64(time.Since(t0)) / float64(time.Millisecond)
	return s
}

// traceparentFor renders request idx's deterministic W3C traceparent:
// the trace ID is a splitmix64 expansion of (seed, idx), the parent span
// ID a third round, and the flags byte is 00 (unsampled — the target's
// tail policy decides retention). The same (seed, idx) always yields the
// same trace ID, so a rerun can be correlated against a prior run's
// /debug/traces dump.
func traceparentFor(seed int64, idx int) string {
	x := uint64(seed)*0x9e3779b97f4a7c15 + uint64(idx)
	a, b, c := splitmix64(&x), splitmix64(&x), splitmix64(&x)
	if a == 0 && b == 0 {
		b = 1 // an all-zero trace ID is invalid per the spec
	}
	if c == 0 {
		c = 1
	}
	return fmt.Sprintf("00-%016x%016x-%016x-00", a, b, c)
}

// splitmix64 advances *x and returns the next output of the SplitMix64
// sequence — the same mixer the daemon's trace sampler uses.
func splitmix64(x *uint64) uint64 {
	*x += 0x9e3779b97f4a7c15
	z := *x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// scrape reads the target's Prometheus /metrics for the server-side
// view: cluseqd_requests_total{route} and cluseqd_sequences_total.
// Failures degrade to a nil section rather than failing the run: the
// target may be a stub without a metrics endpoint.
func (r *Runner) scrape() *ServerStats {
	resp, err := http.Get(r.BaseURL + "/metrics")
	if err != nil {
		r.logf("loadgen: scraping target metrics: %v", err)
		return nil
	}
	defer resp.Body.Close()
	ms, err := obs.ParsePrometheus(resp.Body)
	if err != nil {
		r.logf("loadgen: parsing target metrics: %v", err)
		return nil
	}
	st := &ServerStats{Requests: map[string]int64{}}
	for _, m := range ms {
		switch m.Name {
		case "cluseqd_requests_total":
			st.Requests[m.Label("route")] = int64(m.Value)
		case "cluseqd_sequences_total":
			st.SequencesTotal = int64(m.Value)
		}
	}
	return st
}

func (r *Runner) logf(format string, args ...any) {
	if r.Logf != nil {
		r.Logf(format, args...)
	}
}
