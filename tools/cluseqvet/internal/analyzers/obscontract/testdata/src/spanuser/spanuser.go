package spanuser

import "internal/obs"

func ok(tr *obs.RequestTrace) {
	sp := tr.StartSpan("classify_scan")
	defer sp.End()
	child := tr.StartSpanUnder(sp, "classify_model")
	child.End()
}

func okDeferredInClosure(tr *obs.RequestTrace) {
	work := tr.StartSpan("stream_ingest")
	defer func() {
		work.End()
	}()
}

func okReassigned(tr *obs.RequestTrace) {
	sp := tr.StartSpan("generate")
	sp.End()
	sp = tr.StartSpan("consolidate")
	sp.End()
}

func okDynamic(tr *obs.RequestTrace, phase string) {
	sp := tr.StartSpan(phase) // fine: non-literal names are out of static reach
	sp.End()
}

func badNames(tr *obs.RequestTrace) {
	a := tr.StartSpan("Classify-Scan") // want `invalid span name "Classify-Scan"`
	a.End()
	b := tr.StartSpanUnder(a, "9lives") // want `invalid span name "9lives"`
	b.End()
	c := tr.StartSpan("spaced out") // want `invalid span name "spaced out"`
	c.End()
}

func leaks(tr *obs.RequestTrace) {
	tr.StartSpan("classify_decode")       // want `StartSpan discards its span handle`
	_ = tr.StartSpan("registry_get")      // want `StartSpan discards its span handle`
	sp := tr.StartSpan("classify_encode") // want `span from StartSpan is never ended in this function; call sp\.End`
	_ = sp
	ts := tr.StartSpanUnder(sp, "stream_merge") // want `span from StartSpanUnder is never ended in this function; call ts\.End`
	_ = ts
}

// escape hands the handle to the caller: out of static reach, skipped.
func escape(tr *obs.RequestTrace) obs.SpanHandle {
	return tr.StartSpan("stream_queue_wait")
}
