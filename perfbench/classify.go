package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"time"

	"cluseq/internal/core"
	"cluseq/internal/eval"
	"cluseq/internal/mmapfile"
	"cluseq/internal/registry"
	"cluseq/internal/server"
)

// The classify workload serves a file-loaded model. Set-up trains it on
// planted families, saves it as a v3 bundle and serves it zero-copy. One
// connection sends the pinned smoke scenario's open-loop traffic (its
// rate and its single/batch mix, see mixBatchSizes) while the bundle file
// is rewritten and reloaded classifyReloads times, as a deploy would
// replace it; a closed loop on capacityConns connections then measures
// capacity over fixed work, in batches of the mix's largest size, where
// HTTP and JSON cost least per sequence and the scan sets the rate.
const (
	modelName        = "model"
	classifyTrain    = 500   // 10 families × 50 training sequences
	classifyPool     = 400   // held-out family sequences plus planted outliers
	classifyRate     = 150.0 // benchmarks/scenarios/smoke.json, rate_per_sec
	classifyReloads  = 64
	capacityRequests = 500
	capacityBatch    = 64
	capacityReps     = 5
	classifySetups   = 3
	// servedTreeCap caps each cluster tree of the served model (§5.1), as
	// the stream engine's are: an uncapped model of this data is a 31 MB
	// bundle.
	servedTreeCap = 256 << 10
)

// modelSeed draws the training sequences and seeds the training run, the
// same for every run seed: models trained on different draws, or with a
// different generate-phase sample, differ in size and cluster count,
// which moved scan cost, and so latency and capacity, between seeds. The
// run seed draws the payloads and the schedule.
const modelSeed = 1

// capacityConns is the closed loop's connection count: two, or one on a
// single-CPU host (at most nproc).
var capacityConns = min(2, runtime.NumCPU())

// classifyEnv is one set-up of the classify workload.
type classifyEnv struct {
	dir      string
	bundle   []byte   // the served model, saved as a v3 bundle
	families []string // planted family matched to each cluster
	pool     []string // payload sequences
	labels   []string // their families ("" for planted outliers)
	open     []request
	capacity []request
	reg      *registry.Registry
	lb       *loopback
}

func (e *classifyEnv) close() {
	if e.lb != nil {
		e.lb.close()
	}
}

func setupClassify(p *pass, dir string) (*classifyEnv, error) {
	// The served model is the same for every seed (see modelSeed); the
	// payloads are held-out sequences drawn from the run seed.
	train := plantedDB(modelSeed, classifyTrain, familyLength)
	e := &classifyEnv{dir: dir}
	for _, s := range plantedDB(subSeed(p.seed, "classify/pool"), classifyPool, familyLength).Sequences {
		e.pool = append(e.pool, plantedAlphabet.Decode(s.Symbols))
		e.labels = append(e.labels, s.Label)
	}
	body := func(items []int) []byte {
		seqs := make([]string, len(items))
		for i, it := range items {
			seqs[i] = e.pool[it]
		}
		return classifyBody(modelName, seqs)
	}
	e.open = mixedSchedule(newRand(p.seed, "classify/open"), classifyRate, p.window, len(e.pool), body)
	rng := newRand(p.seed, "classify/capacity")
	for i := 0; i < capacityRequests; i++ {
		items := make([]int, capacityBatch)
		for j := range items {
			items[j] = rng.IntN(len(e.pool))
		}
		e.capacity = append(e.capacity, request{body: body(items), items: items})
	}

	cfg := clusterConfig(modelSeed)
	cfg.Workers = runtime.GOMAXPROCS(0)
	cfg.MaxPSTBytes = servedTreeCap
	cfg.Obs = p.reg
	res, err := core.Cluster(train, cfg)
	if err != nil {
		return nil, err
	}
	rep, err := eval.Evaluate(res.PrimaryClustering(), seqLabels(train))
	if err != nil {
		return nil, err
	}
	e.families = rep.ClusterLabel
	clf, err := core.NewClassifier(train, res, cfg)
	if err != nil {
		return nil, err
	}
	if e.bundle, err = saveBundle(p, clf); err != nil {
		return nil, err
	}
	if err := installBundle(dir, e.bundle, 0); err != nil {
		return nil, err
	}
	var loaded registry.Report
	e.reg, loaded, err = registry.OpenWith(dir, registry.Options{Mmap: true})
	if err != nil {
		return nil, err
	}
	if !slices.Equal(loaded.Loaded, []string{modelName}) || len(loaded.Failed) > 0 {
		return nil, fmt.Errorf("registry did not load the bundle: %+v", loaded)
	}
	srv, err := server.New(server.Config{Registry: e.reg, Obs: p.reg})
	if err != nil {
		return nil, err
	}
	if e.lb, err = serve(p.tr.middleware(srv.Handler())); err != nil {
		return nil, err
	}
	return e, waitReady(e.lb.base)
}

// saveBundle saves the classifier in bundle format v3.
func saveBundle(p *pass, clf *core.Classifier) ([]byte, error) {
	var buf bytes.Buffer
	start := time.Now()
	err := clf.SaveBundle(&buf, core.BundleOptions{})
	p.tr.record(span{name: "core.SaveBundle", trace: p.tr.newTrace(), start: start, end: time.Now(), failed: err != nil})
	return buf.Bytes(), err
}

// installBundle writes a bundle as a deploy would: to a temporary file
// renamed over the served one. version stamps a strictly increasing
// modification time, so the registry's size and mtime fingerprint sees
// every rewrite even on a file system with coarse timestamps.
func installBundle(dir string, bundle []byte, version int) error {
	tmp := filepath.Join(dir, modelName+".tmp")
	if err := os.WriteFile(tmp, bundle, 0o644); err != nil {
		return err
	}
	mtime := time.Unix(1_700_000_000+int64(version), 0)
	if err := os.Chtimes(tmp, mtime, mtime); err != nil {
		return err
	}
	return os.Rename(tmp, filepath.Join(dir, modelName+registry.Ext))
}

func runClassify(p *pass) error {
	var (
		e      *classifyEnv
		setups []float64
	)
	for r := 0; r < classifySetups; r++ {
		if e != nil {
			e.close()
		}
		runtime.GC()
		start := time.Now()
		var err error
		e, err = setupClassify(p, mustMkdir(filepath.Join(p.work, fmt.Sprintf("classify-%d", r))))
		if err != nil {
			return err
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	defer e.close()
	runtime.GC() // the window starts from a collected heap
	p.metric("setup_s", median(setups))
	fp := newFingerprint(p.workload, p.seed)
	fp.requests("open", e.open)
	fp.requests("capacity", e.capacity)
	p.res.Meta["fingerprint"] = fp.sum()

	// The timed window: open-loop classify traffic beside a rewrite and
	// reload of the bundle every window/classifyReloads.
	c := newClient(e.lb.base+"/v1/classify", "classify", p.tr)
	defer c.close()
	type reload struct {
		ok  bool
		msg string
	}
	reloads := make([]reload, 0, classifyReloads)
	pool0 := poolCounters(p)
	gc0 := readGC()
	start := time.Now().Add(10 * time.Millisecond)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < classifyReloads; i++ {
			due := start.Add(time.Duration((float64(i) + 0.5) / classifyReloads * float64(p.window)))
			time.Sleep(time.Until(due))
			if err := installBundle(e.dir, e.bundle, i+1); err != nil {
				reloads = append(reloads, reload{false, err.Error()})
				continue
			}
			t0 := time.Now()
			rep, err := e.reg.Reload()
			ok := err == nil && slices.Equal(rep.Loaded, []string{modelName}) && len(rep.Failed) == 0
			p.tr.record(span{name: "registry.Reload", trace: p.tr.newTrace(), start: t0, end: time.Now(), failed: !ok})
			reloads = append(reloads, reload{ok, fmt.Sprintf("%+v %v", rep, err)})
		}
	}()
	outs := openLoop(c, e.open, start)
	wg.Wait()
	gc := readGC().since(gc0)
	pool1 := poolCounters(p)

	for i, r := range reloads {
		p.check(r.ok, "reload %d: %s", i, r.msg)
	}
	m, ok := e.reg.Get(modelName)
	if !ok {
		return fmt.Errorf("model %q vanished from the registry", modelName)
	}
	// Every response must equal ClassifyString on the loaded model.
	want := make([]core.Assignment, len(e.pool))
	for i, s := range e.pool {
		a, err := m.Classifier.ClassifyString(s)
		if err != nil {
			return err
		}
		want[i] = a
	}
	correct, labeled := 0, 0
	check := func(phase string, reqs []request, outs []outcome) {
		for i := range outs {
			o := &outs[i]
			if !p.checkOutcome(o, phase, i) {
				continue
			}
			var resp server.ClassifyResponse
			if err := json.Unmarshal(o.body, &resp); err != nil || len(resp.Results) != len(reqs[i].items) {
				p.fail("%s request %d: %d results for %d sequences (%v)", phase, i, len(resp.Results), len(reqs[i].items), err)
				continue
			}
			for j, it := range reqs[i].items {
				got, w := resp.Results[j], want[it]
				if got.Error != "" || got.Cluster != w.Cluster || !slices.Equal(got.Memberships, w.Memberships) ||
					math.Float64bits(got.Similarity) != math.Float64bits(w.Similarity) {
					p.fail("%s request %d item %d: got %+v, ClassifyString says %+v", phase, i, j, got, w)
					break
				}
				if phase == "open" && e.labels[it] != "" {
					labeled++
					if got.Cluster >= 0 && e.families[got.Cluster] == e.labels[it] {
						correct++
					}
				}
			}
		}
	}
	check("open", e.open, outs)
	lat := summarize(outs)

	// Capacity: fixed work on capacityConns connections, repeated.
	clients := make([]*client, capacityConns)
	for i := range clients {
		clients[i] = newClient(e.lb.base+"/v1/classify", "classify", p.tr)
		defer clients[i].close()
	}
	var walls []float64
	var capOuts [][]outcome
	for r := 0; r < capacityReps; r++ {
		couts, wall := closedLoop(clients, e.capacity)
		check("capacity", e.capacity, couts)
		walls = append(walls, wall.Seconds())
		capOuts = append(capOuts, couts)
	}
	seqPerS := float64(capacityRequests*capacityBatch) / median(walls)

	p.metric("accuracy", ratio(float64(correct), float64(labeled)))
	p.metric("seq_per_s", seqPerS)
	p.metric("p50_ms", lat.p50)
	p.res.Meta["requests"] = map[string]any{"classify": classCounts(outs), "capacity": classCounts(capOuts...)}
	p.res.Meta["latency_samples"] = lat.samples
	p.res.Meta["reloads"] = len(reloads)
	p.res.Meta["gc_cycles"] = gc.cycles
	p.report("setup_s", p.res.Metrics["setup_s"], "s", classifySetups, "setup_s")
	p.report("accuracy", p.res.Metrics["accuracy"], "ratio", labeled, "accuracy")
	p.report("classify_p50_ms", lat.p50, "ms", lat.samples, "p50_ms")
	p.report("classify_p99_ms", lat.p99, "ms", lat.samples, "")
	p.report("classify_seq_per_s", seqPerS, "1/s", capacityReps, "seq_per_s")
	p.report("late_p99_ms", lat.lateP99, "ms", lat.samples, "")
	p.report("late_share", lat.lateShare, "ratio", lat.samples, "")

	if !p.traced() {
		return nil
	}
	p.layer("runtime.gc_cycles", float64(gc.cycles))
	p.layer("runtime.gc_pause_ms", gc.pauseMs)
	p.layer("bench.late_p99_ms", lat.lateP99)
	p.layer("bench.late_share", lat.lateShare)
	p.layer("registry.reloads", float64(len(reloads)))
	failures, _ := obsRead(p.reg, "cluseq_registry_load_failures_total")
	p.layer("registry.load_failures", failures)
	p.layer("registry.reload_ms_p50", median(p.tr.durationsMs("registry.Reload")))
	mapped, _ := obsRead(p.reg, "cluseq_registry_mapped_bytes")
	p.layer("registry.mapped_bytes", mapped)
	p.layer("core.bundle_save_ms", median(p.tr.durationsMs("core.SaveBundle")))
	p.layer("pst.nodes", float64(m.Classifier.Info().TotalNodes))
	compiles, _ := obsRead(p.reg, "cluseq_classifier_snapshot_compiles_total")
	compileS, _ := obsRead(p.reg, "cluseq_classifier_snapshot_compile_seconds")
	p.layer("pst.snapshot_compiles", compiles/classifySetups)
	p.layer("pst.compile_s", compileS/classifySetups)
	p.layer("pool.tasks", pool1.tasks-pool0.tasks)
	p.layer("pool.runs", pool1.runs-pool0.runs)

	// Bundle load from outside: map the served file and decode it, as a
	// reload does.
	path := filepath.Join(e.dir, modelName+registry.Ext)
	var loads []float64
	for i := 0; i < 20; i++ {
		d := p.tr.timed("core.LoadClassifierBytes", func() bool {
			mp, err := mmapfile.Open(path)
			if err != nil {
				return false
			}
			_, err = core.LoadClassifierBytes(mp.Data(), mp)
			return err == nil
		})
		loads = append(loads, ms(d))
	}
	p.layer("core.bundle_load_ms", median(loads))

	decodeUs, encodeUs := traceClassifyClass(p, e.reg, modelName, e.open, outs, e.pool)
	p.layer("server.decode_us", decodeUs)
	p.layer("server.encode_us", encodeUs)
	measureScan(p, m.Classifier, e.pool)

	var reloadBusy float64
	reloadFailed := int64(0)
	for _, s := range p.tr.named("registry.Reload") {
		reloadBusy += s.dur().Seconds()
		if s.failed {
			reloadFailed++
		}
	}
	okReloads := float64(len(reloads)) - float64(reloadFailed)
	p.tr.row(tableRow{Class: "classify", Layer: "registry.Reload (beside path)", Count: int64(len(reloads)), BusyS: reloadBusy, Failures: reloadFailed, Ratio: ratio(okReloads, float64(len(reloads)))})
	saves := p.tr.named("core.SaveBundle")
	var saveBusy float64
	for _, s := range saves {
		saveBusy += s.dur().Seconds()
	}
	p.tr.row(tableRow{Class: "classify", Layer: "core.SaveBundle (set-up)", Count: int64(len(saves)), BusyS: saveBusy, Ratio: -1})
	return nil
}

// routeBreakdown opens a traced open-loop class's table. It joins each
// answered round trip to the handler span of its route, reports the
// route's handler and transport quantiles, records the class's traced
// end-to-end time (the sum of the joined round trips) and adds the
// transport row. It returns the number of joined requests.
func routeBreakdown(p *pass, class, route string, outs []outcome) int {
	handlers := p.tr.handlerSpans(route)
	var handler, transport []float64
	var rttS, transportS, queuedS float64
	var failures int64
	for i := range outs {
		o := &outs[i]
		if !o.ok() {
			failures++
			continue
		}
		h, ok := handlers[o.trace]
		if !ok {
			continue
		}
		rttS += o.rtt().Seconds()
		queuedS += o.queued.Seconds()
		handler = append(handler, ms(h.dur()))
		transport = append(transport, ms(o.rtt()-h.dur()))
		transportS += (o.rtt() - h.dur()).Seconds()
	}
	p.layer(route+".handler_p50_ms", median(handler))
	p.layer(route+".handler_p99_ms", quantile(handler, 0.99))
	p.layer(route+".transport_p50_ms", quantile(transport, 0.5))
	p.tr.class(class, rttS)
	p.tr.row(tableRow{Class: class, Layer: "transport", Count: int64(len(outs)), BusyS: transportS, WaitS: queuedS, Failures: failures,
		Ratio: ratio(float64(len(outs))-float64(failures), float64(len(outs))), OnPath: true})
	return len(handler)
}

// traceClassifyClass breaks a traced open-loop classify class down by
// layer. The client round trip and the handler span are measured live;
// the layers inside the handler are measured after the window by calling
// the same public functions on the same payloads: JSON decode of the
// request, Registry.Get, ClassifyString per sequence, JSON encode of the
// response. It returns the mean decode and encode time per request, µs.
func traceClassifyClass(p *pass, reg *registry.Registry, name string, reqs []request, outs []outcome, pool []string) (decodeUs, encodeUs float64) {
	const class = "classify"
	n := routeBreakdown(p, class, "server.classify", outs)

	// Decode and encode every request and response body once.
	var decodeS, encodeS float64
	for i := range outs {
		if !outs[i].ok() {
			continue
		}
		var req server.ClassifyRequest
		decodeS += p.tr.timed("server.decode", func() bool { return json.Unmarshal(reqs[i].body, &req) == nil }).Seconds()
		var resp server.ClassifyResponse
		if json.Unmarshal(outs[i].body, &resp) != nil {
			continue
		}
		encodeS += p.tr.timed("server.encode", func() bool { _, err := json.Marshal(resp); return err == nil }).Seconds()
	}
	p.tr.row(tableRow{Class: class, Layer: "server.decode", Count: int64(n), BusyS: decodeS, Ratio: -1, OnPath: true})

	const gets = 100000
	start := time.Now()
	for i := 0; i < gets; i++ {
		reg.Get(name)
	}
	getNs := float64(time.Since(start).Nanoseconds()) / gets
	p.layer("registry.get_ns", getNs)
	p.tr.row(tableRow{Class: class, Layer: "registry.Get", Count: int64(n), BusyS: getNs * float64(n) / 1e9, Ratio: -1, OnPath: true})

	m, _ := reg.Get(name)
	var scanS float64
	items, assigned := 0, 0
	for i := range outs {
		if !outs[i].ok() {
			continue
		}
		for _, it := range reqs[i].items {
			var a core.Assignment
			scanS += p.tr.timed("core.ClassifyString", func() bool {
				var err error
				a, err = m.Classifier.ClassifyString(pool[it])
				return err == nil
			}).Seconds()
			items++
			if a.Cluster >= 0 {
				assigned++
			}
		}
	}
	p.tr.row(tableRow{Class: class, Layer: "core.ClassifyString", Count: int64(items), BusyS: scanS, Ratio: ratio(float64(assigned), float64(items)), OnPath: true})
	p.tr.row(tableRow{Class: class, Layer: "server.encode", Count: int64(n), BusyS: encodeS, Ratio: -1, OnPath: true})
	return ratio(decodeS*1e6, float64(n)), ratio(encodeS*1e6, float64(n))
}
