package obs

type Counter struct{ v int64 }

func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v += n
}

func (c *Counter) Inc() { c.Add(1) } // fine: delegates to a guarded method

func (c *Counter) Value() int64 { // want `exported method \(\*Counter\)\.Value must begin with a nil-receiver guard`
	return c.v
}

func (c *Counter) Reset() int64 { // want `exported method \(\*Counter\)\.Reset must begin with a nil-receiver guard`
	old := c.v
	c.v = 0
	return old
}

func (c *Counter) MaybeAdd(n int64, ok bool) {
	if c == nil || !ok { // a combined condition still guards
		return
	}
	c.v += n
}

func (c *Counter) reset() { c.v = 0 } // fine: unexported

func (c Counter) Peek() int64 { return c.v } // fine: value receiver cannot be nil

type registry struct{ v int } // unexported type: methods exempt

func (r *registry) Bump() { r.v++ }

type Registry struct{ names map[string]string }

func NewRegistry() *Registry { return &Registry{names: map[string]string{}} }

func (r *Registry) Counter(name string, labels ...string) *Counter {
	if r == nil {
		return nil
	}
	r.names[name] = "counter"
	return &Counter{}
}

func (r *Registry) Gauge(name string, labels ...string) *Counter {
	if r == nil {
		return nil
	}
	r.names[name] = "gauge"
	return &Counter{}
}

func (r *Registry) Histogram(name string, lo, hi float64, buckets int, labels ...string) *Counter {
	if r == nil {
		return nil
	}
	r.names[name] = "histogram"
	return &Counter{}
}

// Span surface, mirroring the real package's request-trace span openers
// for the span-name and span-end checks.

type SpanHandle struct{ idx int }

func (h SpanHandle) End() {}

type RequestTrace struct{ n int }

func (t *RequestTrace) StartSpan(name string) SpanHandle {
	return t.StartSpanUnder(SpanHandle{}, name)
}

func (t *RequestTrace) StartSpanUnder(parent SpanHandle, name string) SpanHandle {
	if t == nil {
		return SpanHandle{}
	}
	t.n++
	return SpanHandle{idx: t.n}
}
