package server

import (
	"math"
	rtm "runtime/metrics"
	"sync"

	"cluseq/internal/obs"
)

// goStats exports a curated slice of runtime/metrics as cluseqd_go_*
// gauges, refreshed at each scrape: the runtime signals that
// explain a latency regression from outside the request path — GC
// pauses, scheduler queuing, goroutine count, and heap size. Quantile
// gauges are read from the runtime's own histograms, so they cover the
// whole process lifetime (like the SLO gauges, rate-window analysis is
// the scraper's job).
type goStats struct {
	// mu serializes refreshes: rtm.Read reuses the samples' histogram
	// storage, so concurrent scrapes must not share the slice unguarded.
	mu      sync.Mutex
	samples []rtm.Sample

	goroutines *obs.Gauge
	heapBytes  *obs.Gauge
	gcCycles   *obs.Gauge
	gcPause50  *obs.Gauge
	gcPause99  *obs.Gauge
	schedLat50 *obs.Gauge
	schedLat99 *obs.Gauge
}

// Sample names, in the order goStats.samples is laid out.
const (
	rtGoroutines = "/sched/goroutines:goroutines"
	rtHeapBytes  = "/memory/classes/heap/objects:bytes"
	rtGCCycles   = "/gc/cycles/total:gc-cycles"
	rtGCPauses   = "/gc/pauses:seconds"
	rtSchedLat   = "/sched/latencies:seconds"
)

func newGoStats(reg *obs.Registry) *goStats {
	return &goStats{
		samples: []rtm.Sample{
			{Name: rtGoroutines},
			{Name: rtHeapBytes},
			{Name: rtGCCycles},
			{Name: rtGCPauses},
			{Name: rtSchedLat},
		},
		goroutines: reg.Gauge("cluseqd_go_goroutines"),
		heapBytes:  reg.Gauge("cluseqd_go_heap_bytes"),
		gcCycles:   reg.Gauge("cluseqd_go_gc_cycles"),
		gcPause50:  reg.Gauge("cluseqd_go_gc_pause_p50_seconds"),
		gcPause99:  reg.Gauge("cluseqd_go_gc_pause_p99_seconds"),
		schedLat50: reg.Gauge("cluseqd_go_sched_latency_p50_seconds"),
		schedLat99: reg.Gauge("cluseqd_go_sched_latency_p99_seconds"),
	}
}

// refresh re-reads the runtime samples into the gauges.
func (g *goStats) refresh() {
	g.mu.Lock()
	defer g.mu.Unlock()
	rtm.Read(g.samples)
	for i := range g.samples {
		s := &g.samples[i]
		switch s.Name {
		case rtGoroutines:
			g.goroutines.Set(float64(s.Value.Uint64()))
		case rtHeapBytes:
			g.heapBytes.Set(float64(s.Value.Uint64()))
		case rtGCCycles:
			g.gcCycles.Set(float64(s.Value.Uint64()))
		case rtGCPauses:
			g.gcPause50.Set(rtHistQuantile(s.Value.Float64Histogram(), 0.5))
			g.gcPause99.Set(rtHistQuantile(s.Value.Float64Histogram(), 0.99))
		case rtSchedLat:
			g.schedLat50.Set(rtHistQuantile(s.Value.Float64Histogram(), 0.5))
			g.schedLat99.Set(rtHistQuantile(s.Value.Float64Histogram(), 0.99))
		}
	}
}

// rtHistQuantile reads the q-quantile out of a runtime histogram,
// reporting the upper edge of the bucket the quantile falls in (the
// conservative read for pause/latency data). Open-ended edge buckets
// report their finite edge.
func rtHistQuantile(h *rtm.Float64Histogram, q float64) float64 {
	if h == nil || len(h.Counts) == 0 {
		return 0
	}
	var total uint64
	for _, c := range h.Counts {
		total += c
	}
	if total == 0 {
		return 0
	}
	target := uint64(math.Ceil(q * float64(total)))
	if target == 0 {
		target = 1
	}
	var cum uint64
	for i, c := range h.Counts {
		cum += c
		if cum >= target {
			hi := h.Buckets[i+1]
			if math.IsInf(hi, 1) {
				return h.Buckets[i]
			}
			return hi
		}
	}
	return h.Buckets[len(h.Buckets)-1]
}
