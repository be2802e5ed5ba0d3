package core

import (
	"encoding/json"
	"math/rand/v2"
	"strings"
	"testing"

	"cluseq/internal/obs"
	"cluseq/internal/pst"
)

// traceRecord is the subset of a JSONL trace record these tests decode.
type traceRecord struct {
	Type  string         `json:"type"`
	Name  string         `json:"name"`
	DurUS int64          `json:"dur_us"`
	Attrs map[string]any `json:"attrs"`
}

// TestClusterEmitsPhaseSpans runs a full clustering with a flight
// recorder and a JSONL sink attached and checks the job-trace taxonomy:
// one cluster_iteration trace per iteration holding exactly one
// generate, score, apply, consolidate and threshold span, plus one
// cluster_refine trace holding a refine span when refinement is
// configured — all under one trace ID, with the final metrics record
// last.
func TestClusterEmitsPhaseSpans(t *testing.T) {
	db := determinismDB(t, 11)
	cfg := determinismConfigs()["refine+merge+random"]
	var sb strings.Builder
	tr := obs.NewTracer(&sb)
	// Sample rate 0: jobs begin sampled, so the recorder keeps them all.
	cfg.Flight = obs.NewFlight(obs.FlightConfig{Tracer: tr})
	cfg.Obs = obs.NewRegistry()

	res, err := Cluster(db, cfg)
	if err != nil {
		t.Fatal(err)
	}
	tr.EmitMetrics(cfg.Obs)
	if err := tr.Err(); err != nil {
		t.Fatal(err)
	}

	type job struct {
		route  string
		phases map[string]int
	}
	var jobs []*job
	traceIDs := map[string]bool{}
	lines := strings.Split(strings.TrimRight(sb.String(), "\n"), "\n")
	for i, line := range lines {
		var rec traceRecord
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("trace line is not valid JSON: %v\n%s", err, line)
		}
		if rec.Type == "metrics" {
			if i != len(lines)-1 {
				t.Fatalf("metrics record on line %d of %d, want last", i+1, len(lines))
			}
			continue
		}
		if rec.Type != "span" {
			t.Fatalf("unexpected record type %q: %s", rec.Type, line)
		}
		if rec.DurUS < 0 {
			t.Fatalf("unfinished span: %s", line)
		}
		id, _ := rec.Attrs["trace_id"].(string)
		if id == "" {
			t.Fatalf("span without trace_id: %s", line)
		}
		traceIDs[id] = true
		if rec.Name == "request" {
			if rec.Attrs["status"] != 200.0 {
				t.Errorf("job finished with status %v, want 200: %s", rec.Attrs["status"], line)
			}
			route, _ := rec.Attrs["route"].(string)
			jobs = append(jobs, &job{route: route, phases: map[string]int{}})
			continue
		}
		if len(jobs) == 0 {
			t.Fatalf("span before any job root: %s", line)
		}
		jobs[len(jobs)-1].phases[rec.Name]++
	}
	if len(traceIDs) != 1 {
		t.Errorf("run spans %d trace IDs, want 1: %v", len(traceIDs), traceIDs)
	}
	iterations, refines := 0, 0
	for i, j := range jobs {
		switch j.route {
		case "cluster_iteration":
			iterations++
			for _, phase := range []string{"generate", "score", "apply", "consolidate", "threshold"} {
				if got := j.phases[phase]; got != 1 {
					t.Errorf("iteration %d: %d %s spans, want 1", iterations, got, phase)
				}
			}
			if len(j.phases) != 5 {
				t.Errorf("iteration %d: spans %v, want the five phases only", iterations, j.phases)
			}
		case "cluster_refine":
			refines++
			if i != len(jobs)-1 || len(j.phases) != 1 || j.phases["refine"] != 1 {
				t.Errorf("refine job %d of %d holds %v, want the last job with one refine span", i+1, len(jobs), j.phases)
			}
		default:
			t.Fatalf("unknown job route %q", j.route)
		}
	}
	if iterations != res.Iterations {
		t.Errorf("%d iteration traces, want %d", iterations, res.Iterations)
	}
	if refines != 1 {
		t.Errorf("refine traces = %d, want 1 (RefinePasses=%d)", refines, cfg.RefinePasses)
	}
	if got := len(cfg.Flight.Snapshot(obs.TraceFilter{}).Recent); got != len(jobs) {
		t.Errorf("flight recorder retained %d jobs, want %d", got, len(jobs))
	}

	// The obs registry saw the same run: iteration counter matches, and
	// snapshot-compile activity recorded in the trace is mirrored there.
	if got := cfg.Obs.Counter("cluseq_engine_iterations_total").Value(); got != int64(res.Iterations) {
		t.Errorf("iterations counter = %d, want %d", got, res.Iterations)
	}
	compiles := 0
	for _, tr := range res.Trace {
		compiles += tr.SnapshotCompiles
	}
	if compiles == 0 {
		t.Error("no snapshot compiles recorded in the iteration trace")
	}
	if got := cfg.Obs.Counter("cluseq_engine_snapshot_compiles_total").Value(); got < int64(compiles) {
		t.Errorf("snapshot compile counter = %d, want >= %d (trace total)", got, compiles)
	}
}

// TestClusterObsMatchesResult pins the metrics-only path (no flight recorder):
// gauges land on the final state and phase histograms fill for every
// phase that ran.
func TestClusterObsMatchesResult(t *testing.T) {
	db := determinismDB(t, 29)
	cfg := determinismConfigs()["base"]
	reg := obs.NewRegistry()
	cfg.Obs = reg

	res, err := Cluster(db, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := reg.Gauge("cluseq_engine_clusters").Value(); got != float64(len(res.Clusters)) {
		t.Errorf("clusters gauge = %v, want %d", got, len(res.Clusters))
	}
	if got := reg.Gauge("cluseq_engine_unclustered").Value(); got != float64(len(res.Unclustered)) {
		t.Errorf("unclustered gauge = %v, want %d", got, len(res.Unclustered))
	}
	for _, phase := range []string{"generate", "score", "apply", "consolidate", "threshold"} {
		h := reg.Histogram("cluseq_engine_phase_seconds", 0, 60, 600, "phase", phase)
		if got := h.Count(); got != int64(res.Iterations) {
			t.Errorf("phase %s histogram count = %d, want %d", phase, got, res.Iterations)
		}
	}
	if got := reg.Gauge("cluseq_pst_nodes").Value(); got <= 0 {
		t.Errorf("pst_nodes gauge = %v, want > 0", got)
	}
}

// TestMergeCountsPrunesOnce pins the batch prune counters across a merge
// consolidation. Two capped seed trees prune on insert; consolidation
// then dismisses the smaller cluster and merges its tree into the
// larger, and Merge carries the absorbed tree's PrunedNodes over. Every
// eviction counts once, so at the iteration's end the node counter
// reads the survivor's PrunedNodes alone, and the event counter both
// trees' passes (Merge carries no events over).
func TestMergeCountsPrunesOnce(t *testing.T) {
	db := determinismDB(t, 11)
	cfg, err := Config{
		Significance: 15, FixedSignificance: true, MaxDepth: 4,
		MaxPSTBytes: 32 << 10, MergeConsolidation: true, MinDistinct: 1,
	}.withDefaults()
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	e := &engine{
		db:  db,
		cfg: cfg,
		treeCfg: pst.Config{
			AlphabetSize: db.Alphabet.Size(), MaxDepth: cfg.MaxDepth,
			Significance: cfg.Significance, MaxBytes: cfg.MaxPSTBytes,
			Prune: cfg.Prune, PMin: 0.25 / float64(db.Alphabet.Size()),
		},
		rng:        rand.New(rand.NewPCG(7, 7)),
		background: db.SymbolFrequencies(),
		met:        newEngineMetrics(reg, cfg.Prune),
	}
	if got := e.generateClusters(2); got != 2 {
		t.Fatalf("generated %d clusters, want 2", got)
	}
	a, b := e.clusters[0], e.clusters[1]
	// b's only member joins a too, so b keeps nothing distinct.
	a.members[b.seedIdx] = true
	e.observeIteration(&IterationTrace{})
	if got := e.consolidate(); got != 1 || len(e.clusters) != 1 || e.clusters[0] != a {
		t.Fatalf("consolidation eliminated %d and kept %d clusters; want b merged into a", got, len(e.clusters))
	}
	e.observeIteration(&IterationTrace{})
	if b.tree.PrunedNodes() == 0 {
		t.Fatal("the absorbed seed tree never pruned; the check would be vacuous")
	}
	strategy := cfg.Prune.String()
	events := reg.Counter("cluseq_pst_prune_events_total", "strategy", strategy).Value()
	nodes := reg.Counter("cluseq_pst_pruned_nodes_total", "strategy", strategy).Value()
	wantEvents := a.tree.PruneEvents() + b.tree.PruneEvents()
	if events != wantEvents || nodes != a.tree.PrunedNodes() {
		t.Fatalf("prune counters read %d events and %d nodes, want %d and %d (the absorbed tree evicted %d)",
			events, nodes, wantEvents, a.tree.PrunedNodes(), b.tree.PrunedNodes())
	}
}
