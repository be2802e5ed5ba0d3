package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"text/tabwriter"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around a
// public function of the program. Spans of one request or job share a
// trace ID.
type span struct {
	name       string
	trace      uint64
	id, parent uint32
	start, end time.Time
	failed     bool
}

func (s span) dur() time.Duration { return s.end.Sub(s.start) }

// tracer keeps a traced run's spans in memory until the run ends. The nil
// tracer is the untraced run: every method is a no-op.
type tracer struct {
	origin    time.Time
	nextTrace atomic.Uint64
	nextSpan  atomic.Uint32

	mu    sync.Mutex
	spans []span
	rows  []tableRow
	total map[string]float64 // each class's traced end-to-end seconds
	order []string
}

func newTracer() *tracer {
	return &tracer{origin: time.Now(), spans: make([]span, 0, 1<<14), total: map[string]float64{}}
}

func (t *tracer) newTrace() uint64 {
	if t == nil {
		return 0
	}
	return t.nextTrace.Add(1)
}

func (t *tracer) newSpan() uint32 {
	if t == nil {
		return 0
	}
	return t.nextSpan.Add(1)
}

func (t *tracer) record(s span) {
	if t == nil {
		return
	}
	if s.id == 0 {
		s.id = t.newSpan()
	}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// timed runs fn inside a span of its own trace and returns its duration.
func (t *tracer) timed(name string, fn func() bool) time.Duration {
	start := time.Now()
	ok := fn()
	end := time.Now()
	t.record(span{name: name, trace: t.newTrace(), start: start, end: end, failed: !ok})
	return end.Sub(start)
}

// named returns the recorded spans of one name, in recording order.
func (t *tracer) named(name string) []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []span
	for _, s := range t.spans {
		if s.name == name {
			out = append(out, s)
		}
	}
	return out
}

// durationsMs returns the durations of the named spans in milliseconds.
func (t *tracer) durationsMs(name string) []float64 {
	var out []float64
	for _, s := range t.named(name) {
		out = append(out, ms(s.dur()))
	}
	return out
}

// handlerSpans joins each server-side span to its client round trip by
// trace ID.
func (t *tracer) handlerSpans(name string) map[uint64]span {
	out := map[uint64]span{}
	for _, s := range t.named(name) {
		out[s.trace] = s
	}
	return out
}

// middleware wraps the server's root handler in a traced run and records
// one span per request around it, parented to the client's round-trip
// span named in the request's trace header.
func (t *tracer) middleware(h http.Handler) http.Handler {
	if t == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var trace uint64
		var parent uint32
		if a, b, ok := strings.Cut(r.Header.Get(traceHeader), "-"); ok {
			trace, _ = strconv.ParseUint(a, 10, 64)
			p, _ := strconv.ParseUint(b, 10, 32)
			parent = uint32(p)
		}
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		start := time.Now()
		h.ServeHTTP(sw, r)
		route := strings.TrimPrefix(r.URL.Path, "/v1/")
		t.record(span{name: "server." + route, trace: trace, parent: parent, start: start, end: time.Now(), failed: sw.status != http.StatusOK})
	})
}

type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

// tableRow is one layer's line in a traced run's breakdown of a traffic
// class (or a job).
type tableRow struct {
	Class    string  `json:"class"`
	Layer    string  `json:"layer"`
	Count    int64   `json:"count"`
	BusyS    float64 `json:"busy_s"`
	WaitS    float64 `json:"wait_s"`
	Failures int64   `json:"failures"`
	// Ratio is the layer's useful outcomes ÷ attempts; -1 where the layer
	// has no such ratio.
	Ratio float64 `json:"ratio"`
	// OnPath marks rows on the class's blocking path. Their busy times
	// plus the class's unattributed row add up to its traced end-to-end
	// time; the other rows run beside the path or inside an on-path row.
	OnPath bool `json:"on_path"`
}

// class opens a class's breakdown with its traced end-to-end time.
func (t *tracer) class(name string, totalS float64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if _, ok := t.total[name]; !ok {
		t.order = append(t.order, name)
	}
	t.total[name] = totalS
}

func (t *tracer) row(r tableRow) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.rows = append(t.rows, r)
	t.mu.Unlock()
}

// table returns every class's rows followed by its unattributed row:
// the end-to-end time the on-path rows do not account for.
func (t *tracer) table() []tableRow {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []tableRow
	for _, c := range t.order {
		attributed := 0.0
		for _, r := range t.rows {
			if r.Class == c {
				out = append(out, r)
				if r.OnPath {
					attributed += r.BusyS
				}
			}
		}
		out = append(out, tableRow{Class: c, Layer: "unattributed", BusyS: t.total[c] - attributed, Ratio: -1, OnPath: true})
	}
	return out
}

// unattributed sums the classes' unattributed time.
func (t *tracer) unattributed() float64 {
	sum := 0.0
	for _, r := range t.table() {
		if r.Layer == "unattributed" {
			sum += r.BusyS
		}
	}
	return sum
}

// writeJSONL writes every span, one JSON object per line, with times in
// nanoseconds from the run's start.
func (t *tracer) writeJSONL(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	t.mu.Lock()
	for _, s := range t.spans {
		enc.Encode(struct {
			Name   string `json:"name"`
			Trace  uint64 `json:"trace"`
			ID     uint32 `json:"id"`
			Parent uint32 `json:"parent,omitempty"`
			Start  int64  `json:"start_ns"`
			End    int64  `json:"end_ns"`
			Failed bool   `json:"failed,omitempty"`
		}{s.name, s.trace, s.id, s.parent, int64(s.start.Sub(t.origin)), int64(s.end.Sub(t.origin)), s.failed})
	}
	t.mu.Unlock()
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// printTable prints a traced run's per-layer breakdown, one block per
// traffic class, ending in the class's traced end-to-end time.
func printTable(w io.Writer, res *passResult) {
	tw := tabwriter.NewWriter(w, 0, 4, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintf(tw, "# class\tlayer\tcount\tbusy_s\twait_s\tfailures\tratio\ton_path\t\n")
	totals := map[string]float64{}
	var order []string
	for _, r := range res.Table {
		ratio := "-"
		if r.Ratio >= 0 {
			ratio = fmt.Sprintf("%.4f", r.Ratio)
		}
		path := ""
		if r.OnPath {
			path = "yes"
			if _, ok := totals[r.Class]; !ok {
				order = append(order, r.Class)
			}
			totals[r.Class] += r.BusyS
		}
		fmt.Fprintf(tw, "# %s\t%s\t%d\t%.6f\t%.6f\t%d\t%s\t%s\t\n", r.Class, r.Layer, r.Count, r.BusyS, r.WaitS, r.Failures, ratio, path)
	}
	for _, c := range order {
		fmt.Fprintf(tw, "# %s\tend-to-end (sum of on-path rows)\t\t%.6f\t\t\t\t\t\n", c, totals[c])
	}
	tw.Flush()
}
