package main

import (
	"encoding/json"
	"fmt"
	"math"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"cluseq/internal/core"
	"cluseq/internal/eval"
	"cluseq/internal/obs"
	"cluseq/internal/registry"
	"cluseq/internal/seq"
	"cluseq/internal/server"
	"cluseq/internal/stream"
)

// The ingest workload feeds a stream engine over one connection while a
// second connection classifies against the models it publishes. The
// engine caps every cluster tree at ingestCap bytes (§5.1) and
// consolidates every ingestEvery ingests, by count only, so a replay of
// the same arrival order consolidates at the same points. Set-up primes
// it with ingestPrime sequences; the writer then sends ingestRate
// shuffled planted-family sequences per second of the window, one per
// request at seeded times; the reader sends the classify half of the
// pinned ingest-smoke scenario (see mixBatchSizes); and a closed loop
// ingests ingestClosedReps rounds of ingestClosed more, in batches of one
// of the mix's sizes.
//
// The writer departs from ingest-smoke.json in two ways. Its rate: the
// scenario's 75 ingest requests per second carry about 320 sequences per
// second, more than twice what the engine absorbs closed-loop (about 140
// on a 2-vCPU host), so the backlog would grow with the window; 30 per
// second keeps the engine about a fifth busy and consolidating ~31 times
// per 25 s window (noise rules 3 and 4). And its requests carry one
// sequence each, where the scenario mixes in batches: on the writer's one
// connection a 64-sequence ingest holds the connection for about 0.7 s,
// every request due meanwhile queues behind it, and how many do depends
// on the order of the sizes and on the host's speed. With the mix, the
// writer's p50 spread 0.23 of its median over ten seeds (0.43 over five
// with each size drawn per request), and one run read 8.2 ms against a
// typical 4.5 ms; with single sequences it spread 0.08, 0.12 and 0.13 in
// three sets of ten seeds.
const (
	streamModel       = "stream"
	ingestCap         = 256 << 10
	ingestEvery       = 24
	ingestPrime       = 360
	ingestRate        = 30.0
	readerRate        = 75.0 // ingest-smoke.json: half of its 150/s classifies
	readerPool        = 300
	ingestClosed      = 192
	ingestClosedBatch = 16
	ingestClosedReps  = 5
	ingestSetups      = 3
)

// streamSeed draws the ingested sequences, the same for every run seed.
// The stream engine over-segments (it holds 11 to 27 clusters for the 10
// planted families, depending on the arrival content), and the cluster
// count sets the cost of every ingest and consolidation and the accuracy
// of the published model: with content drawn from the run seed, ingest
// latency and throughput differed by a third between seeds and accuracy
// by whole families. The run seed draws the writer's arrival times and
// the reader's traffic.
const streamSeed = 1

// ingestEnv is one set-up of the ingest workload.
type ingestEnv struct {
	alphabet *seq.Alphabet
	prime    []string
	writer   []request // one sequence per request, in arrival order
	closed   [][]request
	ingested []string // the stream's sequences, in arrival order
	labels   []string // their families
	pool     []string // reader payloads: held-out family sequences
	reader   []request
	eng      *stream.Engine
	reg      *registry.Registry
	lb       *loopback
	pub      *publisher
}

func (e *ingestEnv) close() {
	if e.lb != nil {
		e.lb.close()
	}
	if e.eng != nil {
		e.eng.Close()
	}
}

// publisher is the engine's Publish callback: it installs each snapshot
// with Registry.Publish inside a span and remembers what it published.
type publisher struct {
	p    *pass
	reg  *registry.Registry
	last atomic.Pointer[core.Classifier]
	// maxClusters is the largest cluster count of any published model.
	maxClusters atomic.Int64

	mu     sync.Mutex
	events []publishEvent
}

type publishEvent struct {
	at       time.Time
	dur      time.Duration
	clusters int
	err      error
}

func (pb *publisher) publish(clf *core.Classifier, version uint64) {
	start := time.Now()
	err := pb.reg.Publish(streamModel, clf, version)
	end := time.Now()
	pb.p.tr.record(span{name: "registry.Publish", trace: pb.p.tr.newTrace(), start: start, end: end, failed: err != nil})
	pb.last.Store(clf)
	if n := int64(clf.NumClusters()); n > pb.maxClusters.Load() {
		pb.maxClusters.Store(n) // called under the engine mutex: no racing writer
	}
	pb.mu.Lock()
	pb.events = append(pb.events, publishEvent{at: start, dur: end.Sub(start), clusters: clf.NumClusters(), err: err})
	pb.mu.Unlock()
}

// between returns the publish events in [from, to).
func (pb *publisher) between(from, to time.Time) []publishEvent {
	pb.mu.Lock()
	defer pb.mu.Unlock()
	var out []publishEvent
	for _, ev := range pb.events {
		if !ev.at.Before(from) && ev.at.Before(to) {
			out = append(out, ev)
		}
	}
	return out
}

func streamConfig(alpha *seq.Alphabet, publish func(*core.Classifier, uint64), reg *obs.Registry) stream.Config {
	return stream.Config{
		Alphabet:         alpha,
		MaxPSTBytes:      ingestCap,
		ConsolidateEvery: ingestEvery,
		Workers:          runtime.GOMAXPROCS(0),
		Publish:          publish,
		Obs:              reg,
	}
}

func setupIngest(p *pass, dir string) (*ingestEnv, error) {
	// A fixed count of writer arrivals leaves the engine in the same state
	// after the window whatever the seed; only their times vary.
	room := int(ingestRate * p.window.Seconds())
	dues := uniformDues(newRand(p.seed, "ingest/writer"), room, p.window)
	// The stream's content is the same for every seed (see streamSeed):
	// the priming sequences, the writer's, then the closed loop's.
	closedAt := ingestPrime + room
	db := plantedDB(streamSeed, closedAt+ingestClosed*ingestClosedReps, familyLength)
	e := &ingestEnv{alphabet: plantedAlphabet}
	for _, s := range db.Sequences {
		e.ingested = append(e.ingested, db.Alphabet.Decode(s.Symbols))
		e.labels = append(e.labels, s.Label)
	}
	e.prime = e.ingested[:ingestPrime]
	for i, d := range dues {
		it := ingestPrime + i
		e.writer = append(e.writer, request{due: d, body: ingestBody(e.ingested[it : it+1]), items: []int{it}})
	}
	next := closedAt
	for r := 0; r < ingestClosedReps; r++ {
		var reqs []request
		for i := 0; i < ingestClosed; i += ingestClosedBatch {
			items := make([]int, ingestClosedBatch)
			for j := range items {
				items[j] = next + j
			}
			reqs = append(reqs, request{body: ingestBody(e.ingested[next : next+ingestClosedBatch]), items: items})
			next += ingestClosedBatch
		}
		e.closed = append(e.closed, reqs)
	}
	for _, s := range plantedDB(subSeed(p.seed, "ingest/reader"), readerPool, familyLength).Sequences {
		e.pool = append(e.pool, plantedAlphabet.Decode(s.Symbols))
	}
	e.reader = mixedSchedule(newRand(p.seed, "ingest/reader"), readerRate, p.window, len(e.pool), func(items []int) []byte {
		seqs := make([]string, len(items))
		for i, it := range items {
			seqs[i] = e.pool[it]
		}
		return classifyBody(streamModel, seqs)
	})

	var err error
	if e.reg, _, err = registry.OpenWith(dir, registry.Options{Mmap: true}); err != nil {
		return nil, err
	}
	e.pub = &publisher{p: p, reg: e.reg}
	if e.eng, err = stream.New(streamConfig(e.alphabet, e.pub.publish, p.reg)); err != nil {
		return nil, err
	}
	for _, v := range e.eng.IngestStrings(e.prime) {
		if v.Status == stream.StatusRejected {
			return nil, fmt.Errorf("priming: sequence rejected: %s", v.Reason)
		}
	}
	srv, err := server.New(server.Config{Registry: e.reg, Stream: e.eng, Obs: p.reg})
	if err != nil {
		return nil, err
	}
	if e.lb, err = serve(p.tr.middleware(srv.Handler())); err != nil {
		return nil, err
	}
	return e, waitReady(e.lb.base)
}

func runIngest(p *pass) error {
	var (
		e      *ingestEnv
		setups []float64
	)
	for r := 0; r < ingestSetups; r++ {
		if e != nil {
			e.close()
		}
		runtime.GC()
		start := time.Now()
		var err error
		e, err = setupIngest(p, mustMkdir(filepath.Join(p.work, fmt.Sprintf("ingest-%d", r))))
		if err != nil {
			return err
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	defer e.close()
	runtime.GC() // the window starts from a collected heap
	p.metric("setup_s", median(setups))
	fp := newFingerprint(p.workload, p.seed)
	fp.strings("prime", e.prime)
	fp.requests("writer", e.writer)
	for _, reqs := range e.closed {
		fp.requests("closed", reqs)
	}
	fp.requests("reader", e.reader)
	p.res.Meta["fingerprint"] = fp.sum()

	// The timed window: the writer and the reader, one connection each.
	wc := newClient(e.lb.base+"/v1/ingest", "ingest", p.tr)
	defer wc.close()
	rc := newClient(e.lb.base+"/v1/classify", "classify", p.tr)
	defer rc.close()
	st0 := e.eng.Stats()
	pool0 := poolCounters(p)
	merge0, mergeN0 := obsRead(p.reg, "cluseq_stream_merge_seconds")
	gc0 := readGC()
	start := time.Now().Add(10 * time.Millisecond)
	var readOuts []outcome
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		readOuts = openLoop(rc, e.reader, start)
	}()
	writeOuts := openLoop(wc, e.writer, start)
	wg.Wait()
	end := time.Now()
	gc := readGC().since(gc0)
	st1 := e.eng.Stats()
	pool1 := poolCounters(p)
	merge1, mergeN1 := obsRead(p.reg, "cluseq_stream_merge_seconds")
	// Only HTTP ingests record their engine mutex wait, so right after the
	// window the histogram holds exactly the writer's waits.
	lock := lockWait{}
	if p.traced() {
		h := p.reg.Histogram("cluseq_stream_lock_wait_seconds", 0, 1, 200)
		if v, ok := h.Quantile(0.99); ok {
			lock.p99Ms = 1000 * v
		}
		lock.count, lock.sumS = h.Count(), h.Sum()
	}

	// Closed loop: fixed counts of ingests on the writer's connection
	// (one connection keeps the arrival order, and so the model,
	// deterministic).
	var rates []float64
	var closedOuts [][]outcome
	for _, reqs := range e.closed {
		outs, wall := closedLoop([]*client{wc}, reqs)
		closedOuts = append(closedOuts, outs)
		rates = append(rates, float64(ingestClosed)/wall.Seconds())
	}

	verdicts := map[int]stream.Verdict{} // HTTP verdict per ingested sequence
	checkWriter := func(phase string, reqs []request, outs []outcome) {
		for i := range outs {
			o := &outs[i]
			if !p.checkOutcome(o, phase, i) {
				continue
			}
			var resp server.IngestResponse
			if err := json.Unmarshal(o.body, &resp); err != nil || len(resp.Results) != len(reqs[i].items) {
				p.fail("%s request %d: %d verdicts for %d sequences (%v)", phase, i, len(resp.Results), len(reqs[i].items), err)
				continue
			}
			for j, it := range reqs[i].items {
				verdicts[it] = resp.Results[j]
			}
		}
	}
	checkWriter("writer", e.writer, writeOuts)
	for r, reqs := range e.closed {
		checkWriter(fmt.Sprintf("closed%d", r), reqs, closedOuts[r])
	}
	// Reader responses must be index-aligned and name clusters that exist
	// in a published model.
	maxClusters := int(e.pub.maxClusters.Load())
	for i := range readOuts {
		o := &readOuts[i]
		if !p.checkOutcome(o, "reader", i) {
			continue
		}
		var resp server.ClassifyResponse
		if err := json.Unmarshal(o.body, &resp); err != nil || len(resp.Results) != len(e.reader[i].items) {
			p.fail("reader request %d: %d results for %d sequences (%v)", i, len(resp.Results), len(e.reader[i].items), err)
			continue
		}
		for j, r := range resp.Results {
			inRange := r.Error == "" && r.Cluster >= -1 && r.Cluster < maxClusters
			for _, m := range r.Memberships {
				inRange = inRange && m >= 0 && m < maxClusters
			}
			if !inRange {
				p.fail("reader request %d item %d: %+v outside every published model (at most %d clusters)", i, j, r, maxClusters)
				break
			}
		}
	}
	for _, ev := range e.pub.between(start, end) {
		p.check(ev.err == nil, "publish: %v", ev.err)
	}

	// Accuracy: the last published model over every ingested sequence.
	last := e.pub.last.Load()
	if last == nil {
		return fmt.Errorf("the stream published no model")
	}
	absorbed := make([]int, 0, len(e.ingested))
	for i := range e.prime {
		absorbed = append(absorbed, i)
	}
	for _, reqs := range append([][]request{e.writer}, e.closed...) {
		for _, r := range reqs {
			absorbed = append(absorbed, r.items...)
		}
	}
	assign := make([]int, len(absorbed))
	labels := make([]string, len(absorbed))
	for i, it := range absorbed {
		a, err := last.ClassifyString(e.ingested[it])
		if err != nil {
			return err
		}
		assign[i], labels[i] = a.Cluster, e.labels[it]
	}
	rep, err := eval.Evaluate(eval.FromAssignments(assign), labels)
	if err != nil {
		return err
	}

	wlat, rlat := summarize(writeOuts), summarize(readOuts)
	seqPerS := median(rates)
	p.metric("accuracy", rep.Accuracy)
	p.metric("seq_per_s", seqPerS)
	p.metric("p50_ms", wlat.p50)
	consolidations := st1.Consolidations - st0.Consolidations
	p.res.Meta["requests"] = map[string]any{"ingest": classCounts(writeOuts), "classify": classCounts(readOuts), "closed": classCounts(closedOuts...)}
	p.res.Meta["latency_samples"] = map[string]int{"ingest": wlat.samples, "classify": rlat.samples}
	p.res.Meta["consolidations"] = consolidations
	p.res.Meta["gc_cycles"] = gc.cycles
	p.res.Meta["clusters"] = st1.Clusters
	p.report("setup_s", p.res.Metrics["setup_s"], "s", ingestSetups, "setup_s")
	p.report("accuracy", rep.Accuracy, "ratio", len(absorbed), "accuracy")
	p.report("ingest_p50_ms", wlat.p50, "ms", wlat.samples, "p50_ms")
	p.report("ingest_p99_ms", wlat.p99, "ms", wlat.samples, "")
	p.report("ingest_seq_per_s", seqPerS, "1/s", ingestClosedReps, "seq_per_s")
	p.report("classify_p50_ms", rlat.p50, "ms", rlat.samples, "")
	p.report("classify_p99_ms", rlat.p99, "ms", rlat.samples, "")
	p.report("late_p99_ms", max(wlat.lateP99, rlat.lateP99), "ms", wlat.samples+rlat.samples, "")
	p.report("late_share", max(wlat.lateShare, rlat.lateShare), "ratio", wlat.samples+rlat.samples, "")

	if !p.traced() {
		return nil
	}
	ingested := st1.Ingested - st0.Ingested
	p.layer("stream.consolidations", float64(consolidations))
	p.layer("stream.merges", float64(st1.Merges-st0.Merges))
	p.layer("stream.dissolves", float64(st1.Dissolves-st0.Dissolves))
	p.layer("stream.new_clusters", float64(st1.NewClusters-st0.NewClusters))
	p.layer("stream.clusters", float64(st1.Clusters))
	p.layer("stream.accept_ratio", ratio(float64(st1.Accepted-st0.Accepted), float64(ingested)))
	p.layer("stream.merge_ms", 1000*ratio(merge1-merge0, float64(mergeN1-mergeN0)))
	p.layer("stream.lock_wait_ms_p99", lock.p99Ms)
	p.layer("pst.nodes", float64(st1.PSTNodes))
	p.layer("pool.tasks", pool1.tasks-pool0.tasks)
	p.layer("pool.runs", pool1.runs-pool0.runs)
	p.layer("runtime.gc_cycles", float64(gc.cycles))
	p.layer("runtime.gc_pause_ms", gc.pauseMs)
	p.layer("bench.late_p99_ms", max(wlat.lateP99, rlat.lateP99))
	p.layer("bench.late_share", max(wlat.lateShare, rlat.lateShare))
	pubs := e.pub.between(start, end)
	var pubDur time.Duration
	compiles := 0
	for _, ev := range pubs {
		pubDur += ev.dur
		compiles += ev.clusters
	}
	p.layer("registry.publishes", float64(len(pubs)))
	p.layer("registry.publish_us", ratio(float64(pubDur.Microseconds()), float64(len(pubs))))
	// Each publish compiles one snapshot per cluster of the model it
	// freezes; compile_s is the cost of one such publish, measured by
	// recompiling the last published model's trees.
	p.layer("pst.snapshot_compiles", float64(compiles))
	compile := p.tr.timed("pst.CompileSnapshot", func() bool {
		for _, t := range last.Trees() {
			t.CompileSnapshot(last.Background())
		}
		return true
	})
	p.layer("pst.compile_s", compile.Seconds())

	traceWriter(p, e, writeOuts, lock)
	traceClassifyClass(p, e.reg, streamModel, e.reader, readOuts, e.pool)
	measureScan(p, last, e.pool)
	replayIngest(p, e, verdicts)
	return nil
}

// traceWriter breaks the traced writer class down: round trip and
// handler live, JSON decode and encode replayed on the same bodies, and
// the engine mutex wait from the engine's own histogram. replayIngest
// adds the engine rows.
func traceWriter(p *pass, e *ingestEnv, outs []outcome, lock lockWait) {
	const class = "ingest"
	n := routeBreakdown(p, class, "server.ingest", outs)
	var decodeS, encodeS float64
	for i := range outs {
		if !outs[i].ok() {
			continue
		}
		var req server.IngestRequest
		decodeS += p.tr.timed("server.decode", func() bool { return json.Unmarshal(e.writer[i].body, &req) == nil }).Seconds()
		var resp server.IngestResponse
		if json.Unmarshal(outs[i].body, &resp) == nil {
			encodeS += p.tr.timed("server.encode", func() bool { _, err := json.Marshal(resp); return err == nil }).Seconds()
		}
	}
	p.layer("server.decode_us", ratio(decodeS*1e6, float64(n)))
	p.layer("server.encode_us", ratio(encodeS*1e6, float64(n)))
	p.tr.row(tableRow{Class: class, Layer: "server.decode+encode", Count: int64(n), BusyS: decodeS + encodeS, Ratio: -1, OnPath: true})
	p.tr.row(tableRow{Class: class, Layer: "stream.lock_wait", Count: lock.count, BusyS: lock.sumS, WaitS: lock.sumS, Ratio: -1, OnPath: true})
}

// replayIngest feeds the recorded arrival order into a fresh engine
// through Engine.IngestStrings, one call per HTTP request, checks that
// every verdict equals the one the server returned, and times the
// engine's work per call.
func replayIngest(p *pass, e *ingestEnv, httpVerdicts map[int]stream.Verdict) {
	const class = "ingest"
	reg, _, err := registry.OpenWith(mustMkdir(filepath.Join(p.work, "replay")), registry.Options{Mmap: true})
	if err != nil {
		p.check(false, "replay registry: %v", err)
		return
	}
	var publishS float64
	eng, err := stream.New(streamConfig(e.alphabet, func(clf *core.Classifier, version uint64) {
		start := time.Now()
		reg.Publish(streamModel, clf, version)
		publishS += time.Since(start).Seconds()
	}, nil))
	if err != nil {
		p.check(false, "replay engine: %v", err)
		return
	}
	defer eng.Close()
	eng.IngestStrings(e.prime)

	reqs := append([]request(nil), e.writer...)
	for _, c := range e.closed {
		reqs = append(reqs, c...)
	}
	var plain, consolidating []float64
	var consolidatingPublishS []float64
	mismatched := 0
	for i, r := range reqs {
		seqs := make([]string, len(r.items))
		for j, it := range r.items {
			seqs[j] = e.ingested[it]
		}
		before := eng.Stats().Consolidations
		publishBefore := publishS
		var got []stream.Verdict
		d := p.tr.timed("stream.IngestStrings", func() bool { got = eng.IngestStrings(seqs); return true })
		consolidated := eng.Stats().Consolidations != before
		for j, it := range r.items {
			want, ok := httpVerdicts[it]
			if ok && (got[j].Status != want.Status || got[j].Cluster != want.Cluster ||
				math.Float64bits(got[j].Similarity) != math.Float64bits(want.Similarity)) {
				mismatched++
			}
		}
		if i >= len(e.writer) {
			continue // closed-loop requests are checked, not timed
		}
		if consolidated {
			consolidating = append(consolidating, ms(d))
			consolidatingPublishS = append(consolidatingPublishS, publishS-publishBefore)
		} else {
			plain = append(plain, ms(d))
		}
	}
	p.check(mismatched == 0, "replay: %d of %d verdicts differ from the HTTP ingest verdicts", mismatched, len(httpVerdicts))

	typical := median(plain)
	var excess []float64
	plainS, consolidateS, pubS := 0.0, 0.0, 0.0
	for _, d := range plain {
		plainS += d / 1000
	}
	for i, d := range consolidating {
		excess = append(excess, d-typical)
		plainS += typical / 1000
		consolidateS += (d-typical)/1000 - consolidatingPublishS[i]
		pubS += consolidatingPublishS[i]
	}
	p.layer("stream.ingest_ms_p50", typical)
	if len(excess) > 0 {
		p.layer("stream.consolidate_ms_p50", median(excess))
		p.layer("stream.consolidate_ms_max", slices.Max(excess))
	}
	p.tr.row(tableRow{Class: class, Layer: "stream.ingest (replay)", Count: int64(len(plain) + len(consolidating)), BusyS: plainS, Ratio: -1, OnPath: true})
	p.tr.row(tableRow{Class: class, Layer: "stream.consolidate (replay)", Count: int64(len(consolidating)), BusyS: consolidateS, Ratio: -1, OnPath: true})
	p.tr.row(tableRow{Class: class, Layer: "registry.Publish (replay)", Count: int64(len(consolidating)), BusyS: pubS, Ratio: -1, OnPath: true})
}

// lockWait summarizes the engine's mutex-wait histogram over the window.
type lockWait struct {
	count       int64
	sumS, p99Ms float64
}

// poolCounts is the sum of every worker pool's Instrument counters.
type poolCounts struct{ tasks, runs float64 }

func poolCounters(p *pass) poolCounts {
	if !p.traced() {
		return poolCounts{}
	}
	var c poolCounts
	for _, prefix := range []string{"cluseq_pool", "cluseqd_pool", "cluseq_stream_pool"} {
		t, _ := obsRead(p.reg, prefix+"_tasks_total")
		r, _ := obsRead(p.reg, prefix+"_runs_total")
		c.tasks += t
		c.runs += r
	}
	return c
}
