package server

import (
	"time"

	"cluseq/internal/obs"
)

// metrics is the daemon's view into its obs registry. All counters live
// in the registry itself (shared with the engine/pool/registry metrics
// when the caller supplies one, see Config.Obs); this struct only holds
// the start time and pre-registered handles for the request path, so
// handlers never look a series up by name per request.
type metrics struct {
	start time.Time
	reg   *obs.Registry

	sequences *obs.Counter   // sequences classified
	outliers  *obs.Counter   // of which below every threshold
	uptime    *obs.Gauge     // refreshed at each scrape
	inflight  *obs.Gauge     // requests currently inside a handler
	batchSize *obs.Histogram // sequences per classify request

	ingestBatch *obs.Histogram // sequences per ingest request
}

func newMetrics(reg *obs.Registry) *metrics {
	if reg == nil {
		reg = obs.NewRegistry()
	}
	return &metrics{
		start:     time.Now(),
		reg:       reg,
		sequences: reg.Counter("cluseqd_sequences_total"),
		outliers:  reg.Counter("cluseqd_outliers_total"),
		uptime:    reg.Gauge("cluseqd_uptime_seconds"),
		// Load-harness-facing series: the inflight gauge exposes queueing
		// under open-loop load, and the batch-size distribution lets a
		// replayed scenario be checked against what the server saw.
		inflight: reg.Gauge("cluseqd_inflight_requests"),
		// 256 buckets of width 4 over [0, 1024), the default MaxBatch.
		batchSize: reg.Histogram("cluseqd_classify_batch_size", 0, 1024, 256),
		// Ingest mirrors the classify shape so dashboards can overlay
		// the two request kinds.
		ingestBatch: reg.Histogram("cluseqd_ingest_batch_size", 0, 1024, 256),
	}
}

// observeRoute records one finished request: a per-route count, a
// per-route/status count, and a per-route latency observation carrying
// the request's trace ID as the series exemplar (zero for untraced
// routes — health and metrics probes). Called from the outermost
// middleware, so it sees every endpoint. The registry lookup here is a
// read-locked map hit — registration happened on the first request per
// series.
func (m *metrics) observeRoute(route, status string, d time.Duration, exemplar obs.TraceID) {
	m.reg.Counter("cluseqd_requests_total", "route", route).Inc()
	m.reg.Counter("cluseqd_responses_total", "route", route, "status", status).Inc()
	m.routeLatency(route).ObserveExemplar(d.Seconds(), exemplar)
}

// routeLatency is the single registration site for the per-route
// request-seconds family; the SLO gauges read the same handles back at
// scrape time, so the two must never drift apart in domain or labels.
func (m *metrics) routeLatency(route string) *obs.Histogram {
	return m.reg.Histogram("cluseqd_request_seconds", 0, 5, 500, "route", route)
}

func (m *metrics) countError(class string) {
	m.reg.Counter("cluseqd_errors_total", "class", class).Inc()
}

func (m *metrics) countClassifications(model string, n int64) {
	m.reg.Counter("cluseqd_classifications_total", "model", model).Add(n)
}
