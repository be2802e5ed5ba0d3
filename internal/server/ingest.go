package server

import (
	"encoding/json"
	"errors"
	"net/http"
	"time"

	"cluseq/internal/obs"
	"cluseq/internal/stream"
)

// IngestRequest is the body of POST /v1/ingest. Exactly one of Sequence
// and Sequences must be set; the engine absorbs the sequences in order.
type IngestRequest struct {
	// Sequence is the single-ingest form.
	Sequence string `json:"sequence,omitempty"`
	// Sequences is the batch form.
	Sequences []string `json:"sequences,omitempty"`
}

// IngestResponse answers POST /v1/ingest. Results are index-aligned
// with the request's sequences (the single form yields one entry); a
// bad sequence is rejected alone, never the whole batch.
type IngestResponse struct {
	Results []stream.Verdict `json:"results"`
	// Accepted/NewClusters/Rejected tally this request's verdicts.
	Accepted    int `json:"accepted"`
	NewClusters int `json:"new_clusters"`
	Rejected    int `json:"rejected"`
	// Clusters is the live cluster count after the batch.
	Clusters int `json:"clusters"`
	// ElapsedMs is the server-side ingest time.
	ElapsedMs float64 `json:"elapsed_ms"`
}

// handleIngest feeds sequences into the streaming engine. Unlike
// classify there is no per-request parallel fan-out: ingest order is
// the clustering input, so the engine serializes arrivals internally
// and the handler simply hands the batch over in one call.
func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request) {
	if s.stream == nil {
		s.fail(w, r, http.StatusServiceUnavailable, "unavailable", "streaming ingest is disabled; start cluseqd with -stream")
		return
	}
	start := time.Now()
	tr := obs.TraceFromContext(r.Context())
	var req IngestRequest
	body := http.MaxBytesReader(w, r.Body, s.maxBodyBytes)
	dec := tr.StartSpan("ingest_decode")
	err := json.NewDecoder(body).Decode(&req)
	dec.End()
	if err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			s.fail(w, r, http.StatusRequestEntityTooLarge, "too_large", "request body exceeds %d bytes", s.maxBodyBytes)
			return
		}
		s.fail(w, r, http.StatusBadRequest, "bad_request", "malformed JSON: %v", err)
		return
	}
	single := req.Sequence != ""
	if single && len(req.Sequences) > 0 {
		s.fail(w, r, http.StatusBadRequest, "bad_request", `set either "sequence" or "sequences", not both`)
		return
	}
	seqs := req.Sequences
	if single {
		seqs = []string{req.Sequence}
	}
	if len(seqs) == 0 {
		s.fail(w, r, http.StatusBadRequest, "bad_request", `missing "sequence" or "sequences"`)
		return
	}
	if len(seqs) > s.maxBatch {
		s.fail(w, r, http.StatusRequestEntityTooLarge, "too_large", "batch of %d exceeds the %d-sequence limit", len(seqs), s.maxBatch)
		return
	}
	s.metrics.ingestBatch.Observe(float64(len(seqs)))

	// The ctx-aware ingest records the time queued behind the engine
	// mutex and the ingest work as separate spans on this request's
	// trace (plus a consolidation span when this batch triggers one).
	resp := IngestResponse{Results: s.stream.IngestStringsCtx(r.Context(), seqs)}
	for _, v := range resp.Results {
		switch v.Status {
		case stream.StatusAccepted:
			resp.Accepted++
		case stream.StatusNewCluster:
			resp.NewClusters++
		default:
			resp.Rejected++
		}
	}
	resp.Clusters = s.stream.Stats().Clusters
	resp.ElapsedMs = float64(time.Since(start)) / float64(time.Millisecond)
	enc := tr.StartSpan("ingest_encode")
	writeJSON(w, resp)
	enc.End()
}

// handleIngestStats reports the streaming engine's counters and sizes
// (stream.Stats).
func (s *Server) handleIngestStats(w http.ResponseWriter, r *http.Request) {
	if s.stream == nil {
		s.fail(w, r, http.StatusServiceUnavailable, "unavailable", "streaming ingest is disabled; start cluseqd with -stream")
		return
	}
	writeJSON(w, s.stream.Stats())
}
