// Package obs is the repository's unified observability layer: a
// dependency-free metrics registry (counters, gauges, and timing
// histograms reusing internal/histogram) plus pooled request and job
// traces kept by a flight recorder (see reqtrace.go and flight.go),
// with a JSONL sink for them (trace.go).
//
// # Design
//
// Metrics are registered once — Registry.Counter, Registry.Gauge, and
// Registry.Histogram are idempotent lookups keyed by (name, labels) —
// and the returned handles are then updated lock-free on hot paths:
// Counter.Add and Gauge.Set are single atomic operations, and
// Histogram.Observe is one short mutex-protected bucket increment.
// Registration takes the registry lock; nothing on the update path
// touches a map, so holding a handle across a hot loop costs one
// predictable branch (the nil check) plus the atomic.
//
// Every handle method and every Registry method is nil-receiver-safe
// and becomes a no-op (or zero result) on nil, so instrumented code
// never needs an "is observability enabled?" conditional: code paths
// are instrumented unconditionally and a nil *Registry turns the whole
// layer off. BenchmarkObsOverhead (repository root) pins the resulting
// hot-path cost at noise level.
//
// Scrapers read a consistent point-in-time view with Registry.Snapshot
// (sorted) or render Prometheus text exposition with
// Registry.WritePrometheus (see prom.go), the only exposition; both are
// safe to call while writers are updating the metrics.
// ParsePrometheus reads that text back into the Snapshot form.
//
// # Naming
//
// Metric and label names follow the Prometheus data model
// ([a-zA-Z_:][a-zA-Z0-9_:]* for metric names, no leading colon for
// label names); registration panics on an invalid name, since that is
// always a programming error. The metric catalogue lives in DESIGN.md
// §10.
package obs

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"cluseq/internal/histogram"
)

// Counter is a monotonically increasing metric. The nil Counter is a
// valid no-op, so handles can be carried unconditionally.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by n (negative n is ignored: counters are
// monotone by contract).
//
//cluseq:hotpath
func (c *Counter) Add(n int64) {
	if c == nil || n <= 0 {
		return
	}
	c.v.Add(n)
}

// Inc increments the counter by one.
//
//cluseq:hotpath
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count (0 for a nil Counter).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a metric that can go up and down. The nil Gauge is a valid
// no-op.
type Gauge struct {
	bits atomic.Uint64
}

// Set replaces the gauge's value.
//
//cluseq:hotpath
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Add shifts the gauge by delta.
//
//cluseq:hotpath
func (g *Gauge) Add(delta float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		if g.bits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+delta)) {
			return
		}
	}
}

// Value returns the current value (0 for a nil Gauge).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram is a concurrency-safe timing/size distribution over a fixed
// linear bucket domain (internal/histogram underneath). Observations
// outside the domain clamp into the edge buckets, so no sample is lost;
// quantile resolution is one bucket width. The nil Histogram is a valid
// no-op.
type Histogram struct {
	mu    sync.Mutex
	h     *histogram.Histogram
	count int64
	sum   float64

	// Last trace-ID exemplar (ObserveExemplar), under the same mutex so
	// attaching one costs nothing beyond the observation itself.
	exID  TraceID
	exVal float64
}

// Observe records one sample.
//
//cluseq:hotpath
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	h.mu.Lock() //cluseq:allow hotpath: one short critical section guards the shared buckets; see package doc
	h.h.Add(v)
	h.count++
	h.sum += v
	h.mu.Unlock() //cluseq:allow hotpath: pairs with the Lock above
}

// ObserveExemplar records one sample and attaches the trace ID as the
// series' exemplar (last-write-wins), linking the histogram's
// aggregate shape back to a concrete trace in the flight recorder. A
// zero trace ID records the sample without touching the exemplar.
//
//cluseq:hotpath
func (h *Histogram) ObserveExemplar(v float64, id TraceID) {
	if h == nil {
		return
	}
	h.mu.Lock() //cluseq:allow hotpath: one short critical section guards the shared buckets; see package doc
	h.h.Add(v)
	h.count++
	h.sum += v
	if !id.IsZero() {
		h.exID = id
		h.exVal = v
	}
	h.mu.Unlock() //cluseq:allow hotpath: pairs with the Lock above
}

// ObserveSince records the elapsed seconds since start.
//
//cluseq:hotpath
func (h *Histogram) ObserveSince(start time.Time) {
	h.Observe(time.Since(start).Seconds()) //cluseq:allow hotpath: reading the monotonic clock is the method's purpose
}

// Count returns the number of samples recorded.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.count
}

// Sum returns the sum of all samples.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.sum
}

// Export returns an independent deep copy of the underlying bucket
// histogram, for offline analysis beyond the handle's own accessors:
// arbitrary quantile reads without holding the handle's lock, and
// combining series with histogram.Merge (the load harness merges its
// per-route latency histograms into an overall distribution this way).
// A nil Histogram exports nil.
func (h *Histogram) Export() *histogram.Histogram {
	if h == nil {
		return nil
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.h.Clone()
}

// Quantile estimates the q-quantile of the recorded samples (see
// histogram.Quantile for the interpolation and clamping contract). The
// boolean result is false when no samples were recorded or h is nil.
func (h *Histogram) Quantile(q float64) (float64, bool) {
	if h == nil {
		return 0, false
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.h.Quantile(q)
}

// FractionBelow returns the fraction of recorded samples at or below x
// (see histogram.FractionBelow for the interpolation contract). The
// boolean result is false when no samples were recorded or h is nil.
// The SLO gauges read "fraction of requests within objective" this way.
func (h *Histogram) FractionBelow(x float64) (float64, bool) {
	if h == nil {
		return 0, false
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.h.FractionBelow(x)
}

// Label is one name=value pair attached to a metric series.
type Label struct {
	Key   string `json:"key"`
	Value string `json:"value"`
}

// Kind discriminates metric types in a Snapshot.
type Kind int

const (
	KindCounter Kind = iota
	KindGauge
	KindHistogram
)

// String returns the Prometheus type name of the kind.
func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	default:
		// Histograms are exposed as Prometheus summaries: pre-computed
		// quantiles, not cumulative buckets (the linear bucket layout
		// would cost hundreds of series per metric).
		return "summary"
	}
}

// metric is one registered series.
type metric struct {
	name   string
	labels []Label // sorted by key
	kind   Kind

	counter *Counter
	gauge   *Gauge
	hist    *Histogram
}

// Registry holds named metrics. Construct with NewRegistry; the nil
// *Registry is valid and turns every registration into a nil handle
// (whose methods are no-ops), so instrumentation can be unconditional.
type Registry struct {
	mu      sync.RWMutex
	metrics map[string]*metric
}

// NewRegistry returns an empty metrics registry.
func NewRegistry() *Registry {
	return &Registry{metrics: make(map[string]*metric)}
}

// seriesID is the canonical identity of a series: the metric name plus
// its sorted label set, rendered in Prometheus form. It doubles as the
// flat key of Tracer.EmitMetrics records.
func seriesID(name string, labels []Label) string {
	if len(labels) == 0 {
		return name
	}
	var b strings.Builder
	b.WriteString(name)
	b.WriteByte('{')
	for i, l := range labels {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Key)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(l.Value))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

func validName(s string) bool {
	if s == "" {
		return false
	}
	for i, r := range s {
		alpha := r == '_' || r == ':' || (r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z')
		if !alpha && (i == 0 || r < '0' || r > '9') {
			return false
		}
	}
	return true
}

// parseLabels converts variadic "key", "value" pairs into a sorted
// label set, panicking on malformed input (a programming error).
func parseLabels(name string, kv []string) []Label {
	if len(kv)%2 != 0 {
		panic(fmt.Sprintf("obs: metric %s: odd label key/value list %q", name, kv))
	}
	labels := make([]Label, 0, len(kv)/2)
	for i := 0; i < len(kv); i += 2 {
		if !validName(kv[i]) || strings.Contains(kv[i], ":") {
			panic(fmt.Sprintf("obs: metric %s: invalid label name %q", name, kv[i]))
		}
		labels = append(labels, Label{Key: kv[i], Value: kv[i+1]})
	}
	sort.Slice(labels, func(i, j int) bool { return labels[i].Key < labels[j].Key })
	return labels
}

// lookup returns the series for (name, labels), creating it with mk on
// first registration and panicking when the name is invalid or the
// series already exists with a different kind.
func (r *Registry) lookup(name string, kind Kind, kv []string, mk func(*metric)) *metric {
	if !validName(name) {
		panic(fmt.Sprintf("obs: invalid metric name %q", name))
	}
	labels := parseLabels(name, kv)
	id := seriesID(name, labels)
	r.mu.RLock()
	m := r.metrics[id]
	r.mu.RUnlock()
	if m == nil {
		r.mu.Lock()
		m = r.metrics[id]
		if m == nil {
			m = &metric{name: name, labels: labels, kind: kind}
			mk(m)
			r.metrics[id] = m
		}
		r.mu.Unlock()
	}
	if m.kind != kind {
		panic(fmt.Sprintf("obs: metric %s already registered as %s, requested %s", id, m.kind, kind))
	}
	return m
}

// Counter returns the counter named name with the given "key", "value"
// label pairs, registering it on first use. Subsequent calls with the
// same name and labels return the same handle; a nil *Registry returns
// a nil (no-op) handle.
func (r *Registry) Counter(name string, labelPairs ...string) *Counter {
	if r == nil {
		return nil
	}
	return r.lookup(name, KindCounter, labelPairs, func(m *metric) {
		m.counter = &Counter{}
	}).counter
}

// Gauge returns the gauge named name, registering it on first use.
func (r *Registry) Gauge(name string, labelPairs ...string) *Gauge {
	if r == nil {
		return nil
	}
	return r.lookup(name, KindGauge, labelPairs, func(m *metric) {
		m.gauge = &Gauge{}
	}).gauge
}

// Histogram returns the histogram named name over the linear bucket
// domain [lo, hi) with the given bucket count, registering it on first
// use. The domain of the first registration wins; later calls with the
// same identity reuse the existing series regardless of domain.
func (r *Registry) Histogram(name string, lo, hi float64, buckets int, labelPairs ...string) *Histogram {
	if r == nil {
		return nil
	}
	return r.lookup(name, KindHistogram, labelPairs, func(m *metric) {
		h, err := histogram.New(lo, hi, buckets)
		if err != nil {
			panic(fmt.Sprintf("obs: metric %s: %v", name, err))
		}
		m.hist = &Histogram{h: h}
	}).hist
}

// Exemplar links one histogram series to a concrete trace: the most
// recent exemplar-bearing observation and its value.
type Exemplar struct {
	TraceID string  `json:"trace_id"`
	Value   float64 `json:"value"`
}

// QuantileValue is one pre-computed quantile of a histogram snapshot.
type QuantileValue struct {
	Q     float64 `json:"q"`
	Value float64 `json:"value"`
}

// snapshotQuantiles are the quantiles exported for every histogram.
var snapshotQuantiles = []float64{0.5, 0.95, 0.99}

// Metric is one series in a Registry snapshot.
type Metric struct {
	// Name is the metric name; Labels its sorted label set.
	Name   string  `json:"name"`
	Labels []Label `json:"labels,omitempty"`
	Kind   Kind    `json:"kind"`
	// Value holds the counter or gauge reading.
	Value float64 `json:"value"`
	// Count, Sum, and Quantiles describe a histogram series.
	Count     int64           `json:"count,omitempty"`
	Sum       float64         `json:"sum,omitempty"`
	Quantiles []QuantileValue `json:"quantiles,omitempty"`
	// Exemplar is the series' most recent trace-ID exemplar, when one
	// was recorded via ObserveExemplar.
	Exemplar *Exemplar `json:"exemplar,omitempty"`
}

// ID returns the series identity (name plus rendered label set).
func (m Metric) ID() string { return seriesID(m.Name, m.Labels) }

// Label returns the value of the named label ("" when absent).
func (m Metric) Label(key string) string {
	for _, l := range m.Labels {
		if l.Key == key {
			return l.Value
		}
	}
	return ""
}

// Snapshot returns a point-in-time copy of every registered series,
// sorted by name then label set. It is safe to call concurrently with
// metric updates and registrations; each series is read atomically,
// though the snapshot as a whole is not one global atomic cut.
func (r *Registry) Snapshot() []Metric {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	series := make([]*metric, 0, len(r.metrics))
	for _, m := range r.metrics {
		series = append(series, m)
	}
	r.mu.RUnlock()

	out := make([]Metric, 0, len(series))
	for _, m := range series {
		sm := Metric{Name: m.name, Labels: m.labels, Kind: m.kind}
		switch m.kind {
		case KindCounter:
			sm.Value = float64(m.counter.Value())
		case KindGauge:
			sm.Value = m.gauge.Value()
		case KindHistogram:
			m.hist.mu.Lock()
			sm.Count = m.hist.count
			sm.Sum = m.hist.sum
			for _, q := range snapshotQuantiles {
				if v, ok := m.hist.h.Quantile(q); ok {
					sm.Quantiles = append(sm.Quantiles, QuantileValue{Q: q, Value: v})
				}
			}
			if !m.hist.exID.IsZero() {
				sm.Exemplar = &Exemplar{TraceID: m.hist.exID.String(), Value: m.hist.exVal}
			}
			m.hist.mu.Unlock()
		}
		out = append(out, sm)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Name != out[j].Name {
			return out[i].Name < out[j].Name
		}
		return out[i].ID() < out[j].ID()
	})
	return out
}
