package server

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"net/http"
	"strconv"
	"time"

	"cluseq/internal/obs"
)

// ctxKey is the private context-key type for request-scoped values.
type ctxKey int

const requestIDKey ctxKey = iota

// RequestIDHeader is the header a caller sets to propagate its own
// request ID; the daemon echoes it on every response (generating one
// when absent) so a classification can be correlated across client
// logs, daemon logs, and error bodies.
const RequestIDHeader = "X-Request-ID"

// RequestID returns the request's correlation ID, or "" outside a
// request handled by the server.
func RequestID(ctx context.Context) string {
	id, _ := ctx.Value(requestIDKey).(string)
	return id
}

// sanitizeRequestID accepts a caller-supplied ID only when it is short
// printable ASCII — anything else (header injection attempts, binary
// junk, oversized blobs) is discarded and replaced by a generated ID.
func sanitizeRequestID(id string) string {
	if id == "" || len(id) > 128 {
		return ""
	}
	for i := 0; i < len(id); i++ {
		if id[i] < 0x21 || id[i] > 0x7e {
			return ""
		}
	}
	return id
}

func newRequestID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		// crypto/rand failing is effectively fatal elsewhere; for a log
		// correlation ID a constant fallback merely degrades uniqueness.
		return "00000000OOOOOOOO"
	}
	return hex.EncodeToString(b[:])
}

// statusWriter records the status code a handler (or the timeout
// wrapper) sends, for the access log and per-status counters.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	return w.ResponseWriter.Write(b)
}

// routeOf maps a request path to the stable route label of the request
// metrics and traces. The names for the API routes predate the obs
// registry (classify/models/reload) and are kept for scraper
// compatibility.
func routeOf(path string) string {
	switch path {
	case "/v1/classify":
		return "classify"
	case "/v1/models":
		return "models"
	case "/v1/models/reload":
		return "reload"
	case "/v1/ingest":
		return "ingest"
	case "/v1/ingest/stats":
		return "ingest_stats"
	case "/healthz":
		return "healthz"
	case "/readyz":
		return "readyz"
	case "/metrics":
		return "metrics"
	case "/debug/traces":
		return "debug_traces"
	default:
		return "other"
	}
}

// withRequestID is the outermost middleware: it assigns (or adopts) the
// request's correlation ID, echoes it on the response, begins the
// request trace on API routes (adopting an inbound W3C traceparent and
// echoing the trace ID as X-Trace-ID), and emits one access-log line
// and one set of per-route observations per request.
//
// Note the asymmetry with finishTrace: the trace BEGINS here — so the
// X-Trace-ID header is set before any body bytes go out and the context
// carries the trace into the handler — but it FINISHES inside the
// timeout wrapper, on the handler's own goroutine (see finishTrace).
// This middleware therefore never touches the trace after ServeHTTP
// returns; it works from the identity captured at Begin time.
func (s *Server) withRequestID(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := sanitizeRequestID(r.Header.Get(RequestIDHeader))
		if id == "" {
			id = newRequestID()
		}
		w.Header().Set(RequestIDHeader, id)
		ctx := context.WithValue(r.Context(), requestIDKey, id)
		route := routeOf(r.URL.Path)
		var exemplar obs.TraceID
		traceSuffix := ""
		if traced(r.URL.Path) {
			inbound, _ := obs.ParseTraceparent(r.Header.Get(TraceparentHeader))
			if tr := s.flight.Begin(route, inbound); tr != nil {
				exemplar = tr.TraceID()
				hexID := exemplar.String()
				w.Header().Set(TraceIDHeader, hexID)
				ctx = obs.ContextWithTrace(ctx, tr)
				traceSuffix = " trace=" + hexID
			}
		}
		sw := &statusWriter{ResponseWriter: w}
		s.metrics.inflight.Add(1)
		start := time.Now()
		next.ServeHTTP(sw, r.WithContext(ctx))
		elapsed := time.Since(start)
		s.metrics.inflight.Add(-1)
		status := sw.status
		if status == 0 {
			status = http.StatusOK // handler wrote nothing; net/http sends 200
		}
		s.metrics.observeRoute(route, strconv.Itoa(status), elapsed, exemplar)
		s.logf("server: %s %s %d %.1fms id=%s%s", r.Method, r.URL.Path, status,
			float64(elapsed)/float64(time.Millisecond), id, traceSuffix)
	})
}
