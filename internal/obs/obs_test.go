package obs

import (
	"strings"
	"sync"
	"testing"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("test_total")
	c.Inc()
	c.Add(4)
	c.Add(-10) // counters are monotone; negative adds are dropped
	c.Add(0)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	g := r.Gauge("test_gauge")
	g.Set(2.5)
	g.Add(-1)
	if got := g.Value(); got != 1.5 {
		t.Fatalf("gauge = %v, want 1.5", got)
	}
}

func TestHistogramBasics(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("test_seconds", 0, 10, 100)
	for i := 0; i < 10; i++ {
		h.Observe(float64(i))
	}
	if got := h.Count(); got != 10 {
		t.Fatalf("count = %d, want 10", got)
	}
	if got := h.Sum(); got != 45 {
		t.Fatalf("sum = %v, want 45", got)
	}
	if q, ok := h.Quantile(0.5); !ok || q < 3 || q > 6 {
		t.Fatalf("p50 = %v (ok=%v), want ~4.5", q, ok)
	}
}

// TestHistogramExport pins Export's contract: a deep, independent copy
// of the bucket distribution that merges with other exports (the load
// harness folds per-route exports into an overall distribution).
func TestHistogramExport(t *testing.T) {
	r := NewRegistry()
	a := r.Histogram("test_a_ms", 0, 10, 10)
	b := r.Histogram("test_b_ms", 0, 10, 10)
	for i := 0; i < 6; i++ {
		a.Observe(float64(i))
	}
	b.Observe(8)

	ea := a.Export()
	if ea.Count() != 6 {
		t.Fatalf("export count = %d, want 6", ea.Count())
	}
	ea.Add(9)
	if a.Count() != 6 {
		t.Fatalf("mutating the export changed the live histogram: count %d", a.Count())
	}

	overall := a.Export()
	if err := overall.Merge(b.Export()); err != nil {
		t.Fatal(err)
	}
	if overall.Count() != 7 {
		t.Fatalf("merged export count = %d, want 7", overall.Count())
	}
	if q, ok := overall.Quantile(1); !ok || q < 8 {
		t.Fatalf("merged p100 = %v (ok=%v), want ≥ 8", q, ok)
	}
}

// TestNilSafety drives every handle and registry method through nil
// receivers — the contract that lets instrumented code run with
// observability off and no conditionals.
func TestNilSafety(t *testing.T) {
	var r *Registry
	c := r.Counter("x_total", "k", "v")
	g := r.Gauge("x")
	h := r.Histogram("x_seconds", 0, 1, 10)
	if c != nil || g != nil || h != nil {
		t.Fatal("nil registry must hand out nil handles")
	}
	c.Inc()
	c.Add(3)
	g.Set(1)
	g.Add(1)
	h.Observe(1)
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 || h.Sum() != 0 {
		t.Fatal("nil handles must read as zero")
	}
	if _, ok := h.Quantile(0.5); ok {
		t.Fatal("nil histogram quantile must report no data")
	}
	if h.Export() != nil {
		t.Fatal("nil histogram must export nil")
	}
	if r.Snapshot() != nil {
		t.Fatal("nil registry snapshot must be nil")
	}

	var tr *Tracer
	tr.WriteTraceRecord(&TraceRecord{})
	tr.EmitMetrics(NewRegistry())
	if tr.Err() != nil {
		t.Fatal("nil tracer must report no error")
	}
}

func TestRegistrationIdempotent(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("dup_total", "route", "classify")
	b := r.Counter("dup_total", "route", "classify")
	if a != b {
		t.Fatal("same (name, labels) must return the same handle")
	}
	other := r.Counter("dup_total", "route", "models")
	if a == other {
		t.Fatal("distinct label values must be distinct series")
	}
	a.Inc()
	if b.Value() != 1 || other.Value() != 0 {
		t.Fatal("series aliasing is wrong")
	}
}

func TestKindConflictPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("conflict")
	defer func() {
		if recover() == nil {
			t.Fatal("registering an existing counter as a gauge must panic")
		}
	}()
	r.Gauge("conflict")
}

func TestInvalidNamesPanic(t *testing.T) {
	r := NewRegistry()
	for _, bad := range []string{"", "0leading", "has space", "has-dash"} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("metric name %q must panic", bad)
				}
			}()
			r.Counter(bad)
		}()
	}
	// Odd label list and invalid label names are programming errors too.
	func() {
		defer func() {
			if recover() == nil {
				t.Error("odd label list must panic")
			}
		}()
		r.Counter("ok_total", "dangling")
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("colon in label name must panic")
			}
		}()
		r.Counter("ok_total", "a:b", "v")
	}()
}

func TestSnapshotSortedAndComplete(t *testing.T) {
	r := NewRegistry()
	r.Counter("b_total").Add(2)
	r.Gauge("a_gauge").Set(7)
	h := r.Histogram("c_seconds", 0, 1, 10)
	h.Observe(0.25)
	r.Counter("b_labeled_total", "k", "v2").Inc()
	r.Counter("b_labeled_total", "k", "v1").Inc()

	snap := r.Snapshot()
	var ids []string
	for _, m := range snap {
		ids = append(ids, m.ID())
	}
	want := []string{
		"a_gauge",
		`b_labeled_total{k="v1"}`,
		`b_labeled_total{k="v2"}`,
		"b_total",
		"c_seconds",
	}
	if strings.Join(ids, " ") != strings.Join(want, " ") {
		t.Fatalf("snapshot order = %v, want %v", ids, want)
	}
	for _, m := range snap {
		switch m.ID() {
		case "a_gauge":
			if m.Kind != KindGauge || m.Value != 7 {
				t.Errorf("a_gauge = %+v", m)
			}
		case "b_total":
			if m.Kind != KindCounter || m.Value != 2 {
				t.Errorf("b_total = %+v", m)
			}
		case "c_seconds":
			if m.Kind != KindHistogram || m.Count != 1 || m.Sum != 0.25 || len(m.Quantiles) != 3 {
				t.Errorf("c_seconds = %+v", m)
			}
			if m.Label("nope") != "" {
				t.Errorf("absent label lookup = %q", m.Label("nope"))
			}
		case `b_labeled_total{k="v1"}`:
			if m.Label("k") != "v1" {
				t.Errorf("label lookup = %q", m.Label("k"))
			}
		}
	}
}

// TestConcurrentHammer updates counters, gauges, and histograms from
// many goroutines while a scraper concurrently snapshots and renders
// the Prometheus exposition. Run under -race, this is the layer's
// concurrency contract test.
func TestConcurrentHammer(t *testing.T) {
	r := NewRegistry()
	const (
		goroutines = 8
		iters      = 2000
	)
	var wg, scraperWG sync.WaitGroup
	stop := make(chan struct{})

	// Scraper: snapshot + exposition in a loop until writers finish.
	scraperWG.Add(1)
	go func() {
		defer scraperWG.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			r.Snapshot()
			if err := r.WritePrometheus(discard{}); err != nil {
				t.Errorf("WritePrometheus: %v", err)
				return
			}
		}
	}()

	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			// Half the goroutines hammer shared handles, half register
			// their own series concurrently with the scraper.
			c := r.Counter("hammer_total")
			gauge := r.Gauge("hammer_gauge")
			h := r.Histogram("hammer_seconds", 0, 1, 100)
			for i := 0; i < iters; i++ {
				c.Inc()
				gauge.Add(1)
				h.Observe(float64(i%100) / 100)
				if g%2 == 0 {
					r.Counter("hammer_labeled_total", "worker", string(rune('a'+g))).Inc()
				}
			}
		}(g)
	}
	wg.Wait()
	close(stop)
	scraperWG.Wait()

	if got := r.Counter("hammer_total").Value(); got != goroutines*iters {
		t.Fatalf("hammer_total = %d, want %d", got, goroutines*iters)
	}
	if got := r.Gauge("hammer_gauge").Value(); got != goroutines*iters {
		t.Fatalf("hammer_gauge = %v, want %d", got, goroutines*iters)
	}
	if got := r.Histogram("hammer_seconds", 0, 1, 100).Count(); got != goroutines*iters {
		t.Fatalf("hammer_seconds count = %d, want %d", got, goroutines*iters)
	}
}

type discard struct{}

func (discard) Write(p []byte) (int, error) { return len(p), nil }

// BenchmarkObsOverhead compares a simulated engine phase — a batch of
// arithmetic "similarity" work followed by the per-batch metric updates
// the engine actually performs — with observability off (nil handles)
// and on. The acceptance contract is <5% overhead: obs updates happen
// once per batch, never per element, exactly as in the engine's hot
// loop.
func BenchmarkObsOverhead(b *testing.B) {
	const batch = 4096
	work := func(c *Counter, h *Histogram, g *Gauge) float64 {
		acc := 1.0
		for i := 1; i <= batch; i++ {
			acc += acc/float64(i) + float64(i%7)
		}
		// The engine's per-phase updates: one counter add, one histogram
		// observation, one gauge set.
		c.Add(batch)
		h.Observe(acc / batch)
		g.Set(acc)
		return acc
	}
	var sink float64
	b.Run("off", func(b *testing.B) {
		var (
			c *Counter
			h *Histogram
			g *Gauge
		)
		for i := 0; i < b.N; i++ {
			sink = work(c, h, g)
		}
	})
	b.Run("on", func(b *testing.B) {
		r := NewRegistry()
		c := r.Counter("bench_total")
		h := r.Histogram("bench_seconds", 0, 10, 100)
		g := r.Gauge("bench_gauge")
		for i := 0; i < b.N; i++ {
			sink = work(c, h, g)
		}
	})
	_ = sink
}
