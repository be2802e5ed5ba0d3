package obs

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
)

// WritePrometheus renders the registry in Prometheus text exposition
// format (version 0.0.4): one "# TYPE" comment per metric family, then
// one sample line per series. Counters and gauges export their value
// directly; histograms export as summaries — pre-computed quantiles
// plus <name>_sum and <name>_count — because the underlying linear
// bucket layout (hundreds of buckets) would be wasteful as cumulative
// _bucket series.
//
// It is safe to call concurrently with metric updates. A nil *Registry
// writes nothing.
func (r *Registry) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	bw := bufio.NewWriter(w)
	var lastFamily string
	for _, m := range r.Snapshot() {
		if m.Name != lastFamily {
			bw.WriteString("# TYPE ")
			bw.WriteString(m.Name)
			bw.WriteByte(' ')
			bw.WriteString(m.Kind.String())
			bw.WriteByte('\n')
			lastFamily = m.Name
		}
		switch m.Kind {
		case KindCounter:
			writeSample(bw, m.Name, m.Labels, "", strconv.FormatInt(int64(m.Value), 10))
		case KindGauge:
			writeSample(bw, m.Name, m.Labels, "", formatFloat(m.Value))
		case KindHistogram:
			for _, qv := range m.Quantiles {
				writeSample(bw, m.Name, m.Labels, formatFloat(qv.Q), formatFloat(qv.Value))
			}
			writeSample(bw, m.Name+"_sum", m.Labels, "", formatFloat(m.Sum))
			writeSample(bw, m.Name+"_count", m.Labels, "", strconv.FormatInt(m.Count, 10))
			if m.Exemplar != nil {
				// The 0.0.4 text format has no exemplar syntax, so emit it
				// as a comment line: parsers skip it, humans and the CI
				// trace-identity check can still correlate series → trace.
				bw.WriteString("# EXEMPLAR ")
				bw.WriteString(m.ID())
				bw.WriteString(` trace_id="`)
				bw.WriteString(m.Exemplar.TraceID)
				bw.WriteString(`" value=`)
				bw.WriteString(formatFloat(m.Exemplar.Value))
				bw.WriteByte('\n')
			}
		}
	}
	return bw.Flush()
}

// writeSample emits one exposition line: name{labels[,quantile="q"]} value.
func writeSample(bw *bufio.Writer, name string, labels []Label, quantile, value string) {
	bw.WriteString(name)
	if len(labels) > 0 || quantile != "" {
		bw.WriteByte('{')
		for i, l := range labels {
			if i > 0 {
				bw.WriteByte(',')
			}
			bw.WriteString(l.Key)
			bw.WriteString(`="`)
			bw.WriteString(escapeLabel(l.Value))
			bw.WriteByte('"')
		}
		if quantile != "" {
			if len(labels) > 0 {
				bw.WriteByte(',')
			}
			bw.WriteString(`quantile="`)
			bw.WriteString(quantile)
			bw.WriteByte('"')
		}
		bw.WriteByte('}')
	}
	bw.WriteByte(' ')
	bw.WriteString(value)
	bw.WriteByte('\n')
}

// formatFloat renders a float the way Prometheus expects: shortest
// round-trip decimal, with the special values spelled +Inf/-Inf/NaN.
func formatFloat(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// escapeLabel escapes a label value per the exposition format.
func escapeLabel(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	var b strings.Builder
	for _, r := range v {
		switch r {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteRune(r)
		}
	}
	return b.String()
}

// ParsePrometheus is the reader side of WritePrometheus: it reads text
// exposition format 0.0.4 back into the Snapshot form, one Metric per
// series in order of first appearance. A summary family's quantile
// samples, _sum and _count fold into one KindHistogram series. Comment
// lines other than "# TYPE" (exemplars among them) are skipped; a
// sample outside its "# TYPE" family, an unknown type or a malformed
// line is an error.
func ParsePrometheus(r io.Reader) ([]Metric, error) {
	kinds := map[string]Kind{"counter": KindCounter, "gauge": KindGauge, "summary": KindHistogram}
	var (
		out    []Metric
		index  = map[string]int{} // series ID -> position in out
		family string
		kind   Kind
	)
	sc := bufio.NewScanner(r)
	sc.Buffer(nil, 1<<20)
	for line := 1; sc.Scan(); line++ {
		text := sc.Text()
		if text == "" || text[0] == '#' {
			if f := strings.Fields(text); len(f) == 4 && f[1] == "TYPE" {
				k, ok := kinds[f[3]]
				if !ok {
					return nil, fmt.Errorf("obs: line %d: unsupported metric type %q", line, f[3])
				}
				family, kind = f[2], k
			}
			continue
		}
		name, labels, v, err := parseSample(text)
		if err != nil {
			return nil, fmt.Errorf("obs: line %d: %v", line, err)
		}
		q := ""
		if n := len(labels); kind == KindHistogram && name == family && n > 0 && labels[n-1].Key == "quantile" {
			q, labels = labels[n-1].Value, labels[:n-1]
		}
		id := seriesID(family, labels)
		i, ok := index[id]
		if !ok {
			i, index[id] = len(out), len(out)
			out = append(out, Metric{Name: family, Labels: labels, Kind: kind})
		}
		m := &out[i]
		switch {
		case name == family && kind != KindHistogram:
			m.Value = v
		case name == family && q != "":
			qv, err := strconv.ParseFloat(q, 64)
			if err != nil {
				return nil, fmt.Errorf("obs: line %d: bad quantile %q", line, q)
			}
			m.Quantiles = append(m.Quantiles, QuantileValue{Q: qv, Value: v})
		case kind == KindHistogram && name == family+"_sum":
			m.Sum = v
		case kind == KindHistogram && name == family+"_count":
			m.Count = int64(v)
		default:
			return nil, fmt.Errorf("obs: line %d: sample %s outside family %q", line, name, family)
		}
	}
	return out, sc.Err()
}

// parseSample splits one exposition line, name{labels} value, into its
// parts. A trailing timestamp is accepted and ignored.
func parseSample(s string) (name string, labels []Label, v float64, err error) {
	i := strings.IndexAny(s, "{ ")
	if i <= 0 {
		return "", nil, 0, fmt.Errorf("malformed sample %q", s)
	}
	name, s = s[:i], s[i:]
	if s[0] == '{' {
		s = s[1:]
		for !strings.HasPrefix(s, "}") {
			key, rest, ok := strings.Cut(s, `="`)
			end := 0 // the closing quote: the first one no backslash escapes
			for ; end < len(rest) && rest[end] != '"'; end++ {
				if rest[end] == '\\' {
					end++
				}
			}
			if !ok || end >= len(rest) {
				return "", nil, 0, fmt.Errorf("malformed labels in %s", name)
			}
			// escapeLabel's escapes (\\, \", \n) are Go string escapes.
			val, err := strconv.Unquote(`"` + rest[:end] + `"`)
			if err != nil {
				return "", nil, 0, fmt.Errorf("%s: label %s: %v", name, key, err)
			}
			labels = append(labels, Label{Key: key, Value: val})
			s = strings.TrimPrefix(rest[end+1:], ",")
		}
		s = s[1:]
	}
	f := strings.Fields(s)
	if len(f) == 0 || len(f) > 2 {
		return "", nil, 0, fmt.Errorf("malformed value in %s", name)
	}
	v, err = strconv.ParseFloat(f[0], 64)
	return name, labels, v, err
}
