package obs

import (
	"encoding/json"
	"io"
	"sync"
	"time"
)

// Tracer is the JSON Lines sink for finished traces: the -trace-out
// file of cluseq, experiments and cluseqd. It writes one record per
// line, so the output can be streamed, tailed, and processed with jq
// without ever holding a whole trace in memory. Spans are opened only
// through RequestTrace (see Flight); a Flight with a Tracer attached
// writes every retained trace here at finish time.
//
// Record shapes:
//
//	{"type":"span","name":"request","start_us":...,"dur_us":...,"attrs":{"trace_id":...,"span_id":...,"route":...,"status":...}}
//	{"type":"span","name":"score","start_us":...,"dur_us":...,"attrs":{"trace_id":...,"parent":-1}}
//	{"type":"event","name":"flight_dump","ts_us":...,"attrs":{"recent":...,"slowest":...}}
//	{"type":"metrics","ts_us":...,"metrics":{"series{label=\"v\"}":...}}
//
// start_us/ts_us are Unix microseconds; dur_us is the span's duration
// in microseconds measured with the monotonic clock.
//
// A Tracer is safe for concurrent use (records are serialized by a
// mutex), and the nil *Tracer is a valid no-op.
type Tracer struct {
	mu  sync.Mutex
	w   io.Writer
	err error
}

// NewTracer returns a tracer writing JSONL records to w. The caller
// owns w's lifecycle; check Err after the run for sink write failures.
func NewTracer(w io.Writer) *Tracer {
	return &Tracer{w: w}
}

// Err returns the first write or encoding error the tracer hit, if any.
// Records after a failed write are dropped.
func (t *Tracer) Err() error {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.err
}

// EmitMetrics writes a point-in-time snapshot of the registry as one
// "metrics" record: a flat map from series identity (the Prometheus
// name{labels} form) to its value — a number for counters and gauges,
// a {count, sum, p50, p95, p99} object for histograms. Training runs
// emit one as their final record so a trace file carries both the
// phase timeline and the end-of-run totals.
func (t *Tracer) EmitMetrics(reg *Registry) {
	if t == nil || reg == nil {
		return
	}
	metrics := make(map[string]any)
	for _, m := range reg.Snapshot() {
		switch m.Kind {
		case KindCounter:
			metrics[m.ID()] = int64(m.Value)
		case KindGauge:
			metrics[m.ID()] = m.Value
		case KindHistogram:
			h := map[string]any{"count": m.Count, "sum": m.Sum}
			for _, qv := range m.Quantiles {
				switch qv.Q {
				case 0.5:
					h["p50"] = qv.Value
				case 0.95:
					h["p95"] = qv.Value
				case 0.99:
					h["p99"] = qv.Value
				}
			}
			metrics[m.ID()] = h
		}
	}
	t.write(record{Type: "metrics", TSUS: time.Now().UnixMicro(), Metrics: metrics})
}

// record is the JSONL wire shape shared by all record types.
type record struct {
	Type    string         `json:"type"`
	Name    string         `json:"name,omitempty"`
	StartUS int64          `json:"start_us,omitempty"`
	DurUS   int64          `json:"dur_us"`
	TSUS    int64          `json:"ts_us,omitempty"`
	Attrs   map[string]any `json:"attrs,omitempty"`
	Metrics map[string]any `json:"metrics,omitempty"`
}

func (t *Tracer) write(rec record) {
	data, err := json.Marshal(rec)
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.err != nil {
		return
	}
	if err != nil {
		t.err = err
		return
	}
	if _, err := t.w.Write(append(data, '\n')); err != nil {
		t.err = err
	}
}
