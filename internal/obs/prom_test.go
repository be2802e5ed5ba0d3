package obs

import (
	"bytes"
	"reflect"
	"regexp"
	"strings"
	"testing"
)

// promLine matches one valid exposition sample line:
// name{label="value",...} value
var promLine = regexp.MustCompile(
	`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[a-zA-Z_][a-zA-Z0-9_]*="(\\.|[^"\\])*"(,[a-zA-Z_][a-zA-Z0-9_]*="(\\.|[^"\\])*")*\})? (-?\d+(\.\d+)?([eE][+-]?\d+)?|[+-]Inf|NaN)$`)

var promType = regexp.MustCompile(`^# TYPE [a-zA-Z_:][a-zA-Z0-9_:]* (counter|gauge|summary)$`)

func TestWritePrometheusWellFormed(t *testing.T) {
	r := NewRegistry()
	r.Counter("requests_total", "route", "classify").Add(3)
	r.Counter("requests_total", "route", "models").Add(1)
	r.Gauge("uptime_seconds").Set(12.5)
	r.Gauge("weird_gauge").Set(1e21) // exercises exponent formatting
	h := r.Histogram("latency_ms", 0, 100, 100, "route", "classify")
	for i := 0; i < 50; i++ {
		h.Observe(float64(i))
	}
	r.Counter("escaped_total", "path", "a\\b\"c\nd").Inc()

	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()

	types := map[string]bool{}
	samples := 0
	for _, line := range strings.Split(strings.TrimRight(out, "\n"), "\n") {
		switch {
		case strings.HasPrefix(line, "# TYPE "):
			if !promType.MatchString(line) {
				t.Errorf("malformed TYPE line: %q", line)
			}
			fam := strings.Fields(line)[2]
			if types[fam] {
				t.Errorf("duplicate TYPE line for family %s", fam)
			}
			types[fam] = true
		default:
			if !promLine.MatchString(line) {
				t.Errorf("malformed sample line: %q", line)
			}
			samples++
		}
	}
	for _, fam := range []string{"requests_total", "uptime_seconds", "latency_ms", "escaped_total"} {
		if !types[fam] {
			t.Errorf("missing TYPE line for %s", fam)
		}
	}
	// Histograms export as summaries: 3 quantiles + _sum + _count.
	for _, want := range []string{
		`requests_total{route="classify"} 3`,
		`requests_total{route="models"} 1`,
		"uptime_seconds 12.5",
		`latency_ms{route="classify",quantile="0.5"} `,
		"latency_ms_sum{route=\"classify\"} ",
		"latency_ms_count{route=\"classify\"} 50",
		`escaped_total{path="a\\b\"c\nd"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
	if samples == 0 {
		t.Fatal("no sample lines rendered")
	}
}

// TestParsePrometheusRoundTrip: reading WritePrometheus's output back
// yields Snapshot field for field, exemplars aside, over counters,
// gauges, labelled and empty histograms, escaped label values and
// special float values.
func TestParsePrometheusRoundTrip(t *testing.T) {
	r := NewRegistry()
	r.Counter("requests_total", "route", "classify").Add(3)
	r.Counter("requests_total", "route", "models").Add(1)
	r.Counter("plain_total")
	r.Gauge("uptime_seconds").Set(12.5)
	r.Gauge("weird_gauge", "a", "1", "b", "2").Set(1e21)
	r.Gauge("tiny_gauge").Set(-3.25e-9)
	r.Gauge("inf_gauge").Set(-1 / zero())
	for _, route := range []string{"classify", "ingest"} {
		h := r.Histogram("latency_seconds", 0, 1, 100, "route", route)
		for i := 0; i < 50; i++ {
			h.Observe(float64(i) / 70)
		}
	}
	r.Histogram("latency_seconds", 0, 1, 100, "route", "reload") // no samples: no quantile lines
	r.Histogram("exemplar_seconds", 0, 1, 10).ObserveExemplar(0.3, NewTraceID())
	r.Counter("escaped_total", "path", "a\\b\"c\nd,e}f=\"").Inc()

	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ParsePrometheus(&buf)
	if err != nil {
		t.Fatal(err)
	}
	want := r.Snapshot()
	for _, ms := range [][]Metric{got, want} {
		for i := range ms {
			ms[i].Exemplar = nil
			if len(ms[i].Labels) == 0 {
				ms[i].Labels = nil
			}
		}
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("round trip differs:\n got %+v\nwant %+v", got, want)
	}
}

func TestParsePrometheusRejectsMalformed(t *testing.T) {
	for _, text := range []string{
		"orphan_total 1\n",                        // no # TYPE family
		"# TYPE h histogram\nh_bucket 1\n",        // unsupported type
		"# TYPE c counter\nother_total 1\n",       // outside its family
		"# TYPE c counter\nc{a=\"x} 1\n",          // unterminated label
		"# TYPE c counter\nc{a=\"\\q\"} 1\n",      // bad escape
		"# TYPE c counter\nc one\n",               // bad value
		"# TYPE s summary\ns{quantile=\"x\"} 1\n", // bad quantile
	} {
		if _, err := ParsePrometheus(strings.NewReader(text)); err == nil {
			t.Errorf("ParsePrometheus(%q) succeeded, want an error", text)
		}
	}
}

func TestFormatFloatSpecials(t *testing.T) {
	cases := map[float64]string{
		0.5: "0.5",
	}
	for v, want := range cases {
		if got := formatFloat(v); got != want {
			t.Errorf("formatFloat(%v) = %q, want %q", v, got, want)
		}
	}
	if got := formatFloat(1.0 / zero()); got != "+Inf" {
		t.Errorf("+Inf renders as %q", got)
	}
	if got := formatFloat(-1.0 / zero()); got != "-Inf" {
		t.Errorf("-Inf renders as %q", got)
	}
	if got := formatFloat(zero() / zero()); got != "NaN" {
		t.Errorf("NaN renders as %q", got)
	}
}

// zero defeats constant folding (1.0/0.0 is a compile error in Go).
func zero() float64 { return 0 }
