package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// traceHeader carries the benchmark's trace and client-span IDs to the
// handler middleware of a traced run, so server-side spans join the
// client's round trip.
const traceHeader = "X-Bench-Span"

// loopback serves a handler on a loopback listener.
type loopback struct {
	srv  *http.Server
	done chan struct{}
	base string
}

func serve(h http.Handler) (*loopback, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	lb := &loopback{srv: &http.Server{Handler: h}, done: make(chan struct{}), base: "http://" + ln.Addr().String()}
	go func() {
		defer close(lb.done)
		lb.srv.Serve(ln)
	}()
	return lb, nil
}

// close stops the server and waits for its serve loop to exit.
func (lb *loopback) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := lb.srv.Shutdown(ctx); err != nil {
		lb.srv.Close()
	}
	<-lb.done
}

// client is one traffic class's connection. Its transport holds at most
// one connection, so a class's requests queue behind each other as on one
// keep-alive connection, and two classes never share one (noise rule 1).
type client struct {
	url string
	hc  *http.Client
	tr  *tracer
	// layer names the class's round-trip spans ("classify", "ingest").
	layer string
}

func newClient(url, layer string, tr *tracer) *client {
	t := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
	return &client{url: url, hc: &http.Client{Transport: t}, tr: tr, layer: layer}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// outcome is one request's result as the generator saw it.
type outcome struct {
	trace  uint64 // the request's trace ID in a traced run
	status int
	body   []byte
	err    error
	sent   time.Time
	done   time.Time
	// charged is the latency charged to the program (see openLoop).
	charged time.Duration
	// late is how long after its due time the generator sent a request
	// whose connection was idle then.
	late time.Duration
	// queued is how long a request due while its connection was busy
	// waited for the connection.
	queued time.Duration
}

func (o *outcome) ok() bool { return o.err == nil && o.status == http.StatusOK }

func (o *outcome) rtt() time.Duration { return o.done.Sub(o.sent) }

// do sends one request and reads the whole response.
func (c *client) do(body []byte, o *outcome) {
	trace, sid := c.tr.newTrace(), c.tr.newSpan()
	o.trace = trace
	req, err := http.NewRequest(http.MethodPost, c.url, bytes.NewReader(body))
	if err != nil {
		o.err = err
		return
	}
	req.Header.Set("Content-Type", "application/json")
	if c.tr != nil {
		req.Header.Set(traceHeader, strconv.FormatUint(trace, 10)+"-"+strconv.FormatUint(uint64(sid), 10))
	}
	o.sent = time.Now()
	resp, err := c.hc.Do(req)
	if err == nil {
		o.status = resp.StatusCode
		o.body, err = io.ReadAll(resp.Body)
		resp.Body.Close()
	}
	o.done = time.Now()
	o.err = err
	c.tr.record(span{name: "client." + c.layer, trace: trace, id: sid, start: o.sent, end: o.done, failed: !o.ok()})
}

// openLoop sends each request at its due time, relative to start, on the
// client's one connection, and returns every request's outcome. Arrivals
// never wait for the program: a request due while an earlier one is
// still out is sent as soon as the connection frees.
//
// A request's latency is charged from its due time when the connection
// was busy then, with an earlier request sent and not yet answered: the
// program held it up. When the connection was idle at the due time, the
// latency is charged from the send, and the wait between due time and
// send is the generator's lateness, reported apart (noise rule 2).
func openLoop(c *client, reqs []request, start time.Time) []outcome {
	out := make([]outcome, len(reqs))
	for i := range reqs {
		due := start.Add(reqs[i].due)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		o := &out[i]
		c.do(reqs[i].body, o)
		busy := false
		for k := i - 1; k >= 0 && out[k].done.After(due); k-- {
			if !out[k].sent.After(due) {
				busy = true
				break
			}
		}
		if busy {
			o.charged, o.queued = o.done.Sub(due), o.sent.Sub(due)
		} else {
			o.charged, o.late = o.rtt(), o.sent.Sub(due)
		}
	}
	return out
}

// closedLoop sends reqs over the clients, each sending its next request
// as soon as its previous one answers, and returns the outcomes and the
// wall time from the first send to the last answer.
func closedLoop(clients []*client, reqs []request) ([]outcome, time.Duration) {
	out := make([]outcome, len(reqs))
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for _, c := range clients {
		wg.Add(1)
		go func(c *client) {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(reqs) {
					return
				}
				c.do(reqs[i].body, &out[i])
			}
		}(c)
	}
	wg.Wait()
	return out, time.Since(start)
}

// classCounts tallies one traffic class's requests for the run metadata:
// sent, answered 200, and not (wrong answers count in the run's failed).
func classCounts(outs ...[]outcome) map[string]int {
	sent, ok := 0, 0
	for _, list := range outs {
		for i := range list {
			sent++
			if list[i].ok() {
				ok++
			}
		}
	}
	return map[string]int{"sent": sent, "succeeded": ok, "failed": sent - ok}
}

// latencySummary condenses one traffic class's open-loop outcomes.
type latencySummary struct {
	samples int
	p50     float64 // charged latency, ms
	// p99 is the median of the p99s of consecutive runs of tailChunk
	// samples (the whole window when it holds fewer): one burst of host
	// noise moves one chunk's p99, not the run's.
	p99       float64
	lateP99   float64 // generator lateness, ms
	lateShare float64
}

// tailChunk is the fewest samples a chunk's p99 is taken over.
const tailChunk = 500

// summarize reports charged latency and generator lateness over the
// requests that answered 200; a failed request counts in error_rate, not
// in latency. lateShare is the share of requests sent more than a
// millisecond after their due time onto an idle connection: a rise means
// the generator, not the program, set the latency.
func summarize(outs []outcome) latencySummary {
	lat := make([]float64, 0, len(outs))
	late := make([]float64, 0, len(outs))
	lateCount := 0
	for i := range outs {
		o := &outs[i]
		if !o.ok() {
			continue
		}
		lat = append(lat, ms(o.charged))
		late = append(late, ms(o.late))
		if o.late > time.Millisecond {
			lateCount++
		}
	}
	s := latencySummary{samples: len(lat)}
	if len(lat) == 0 {
		return s
	}
	chunks := max(1, len(lat)/tailChunk)
	var tails []float64
	for c := 0; c < chunks; c++ {
		part := append([]float64(nil), lat[c*len(lat)/chunks:(c+1)*len(lat)/chunks]...)
		tails = append(tails, quantile(part, 0.99))
	}
	s.p99 = median(tails)
	s.p50 = quantile(lat, 0.5)
	s.lateP99 = quantile(late, 0.99)
	s.lateShare = float64(lateCount) / float64(len(lat))
	return s
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics; xs is sorted in place.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, len(xs)-1)
	return xs[lo] + (pos-float64(lo))*(xs[hi]-xs[lo])
}

func median(xs []float64) float64 { return quantile(append([]float64(nil), xs...), 0.5) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// waitReady polls GET /readyz until the server reports ready.
func waitReady(base string) error {
	hc := &http.Client{Transport: &http.Transport{}}
	defer hc.CloseIdleConnections()
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := hc.Get(base + "/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("server at %s not ready: %v", base, err)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// checkOutcome counts one request and records it as failed unless it
// answered 200.
func (p *pass) checkOutcome(o *outcome, phase string, i int) bool {
	if o.ok() {
		return p.check(true, "")
	}
	detail := fmt.Sprintf("status %d: %s", o.status, strings.TrimSpace(string(o.body)))
	if o.err != nil {
		detail = o.err.Error()
	}
	return p.check(false, "%s request %d: %s", phase, i, detail)
}
