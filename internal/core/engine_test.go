package core

import (
	"math"
	"math/rand/v2"
	"reflect"
	"sort"
	"sync"
	"sync/atomic"
	"testing"

	"cluseq/internal/obs"
	"cluseq/internal/pool"
)

func newTestRand(seed uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, seed^0xabcdef))
}

func TestNewClusterBudgetGrowth(t *testing.T) {
	e := &engine{cfg: Config{InitialClusters: 3}}
	if got := e.newClusterBudget(0); got != 3 {
		t.Fatalf("first iteration budget = %d, want k = 3", got)
	}
	// Previous iteration: 4 new, none eliminated → f = 1, budget = k'.
	e.prevNew, e.prevEliminated = 4, 0
	e.clusters = make([]*cluster, 6)
	if got := e.newClusterBudget(1); got != 6 {
		t.Fatalf("f=1 budget = %d, want 6 (exponential pace)", got)
	}
	// Half the new clusters eliminated → f = 0.5.
	e.prevNew, e.prevEliminated = 4, 2
	if got := e.newClusterBudget(2); got != 3 {
		t.Fatalf("f=0.5 budget = %d, want 3", got)
	}
	// All eliminated → f = 0: drop to the minimal probe of one.
	e.prevNew, e.prevEliminated = 4, 4
	if got := e.newClusterBudget(3); got != 1 {
		t.Fatalf("f=0 budget = %d, want 1 (probe)", got)
	}
	// More eliminated than generated still clamps f at 0.
	e.prevNew, e.prevEliminated = 2, 5
	if got := e.newClusterBudget(4); got != 1 {
		t.Fatalf("over-elimination budget = %d, want 1 (probe)", got)
	}
	// No clusters generated previously → probe again so sequences that
	// fall out of clusters can still seed new ones.
	e.prevNew = 0
	if got := e.newClusterBudget(5); got != 1 {
		t.Fatalf("prevNew=0 budget = %d, want 1 (probe)", got)
	}
}

func TestConsolidateDismissesCoveredCluster(t *testing.T) {
	mk := func(id int, members ...int) *cluster {
		c := &cluster{id: id, members: map[int]bool{}}
		for _, m := range members {
			c.members[m] = true
		}
		return c
	}
	e := &engine{cfg: Config{MinDistinct: 2}}
	big := mk(0, 1, 2, 3, 4, 5)
	covered := mk(1, 1, 2, 3) // fully inside big
	distinct := mk(2, 7, 8, 9)
	e.clusters = []*cluster{big, covered, distinct}
	eliminated := e.consolidate()
	if eliminated != 1 {
		t.Fatalf("eliminated = %d, want 1", eliminated)
	}
	ids := []int{}
	for _, c := range e.clusters {
		ids = append(ids, c.id)
	}
	sort.Ints(ids)
	if len(ids) != 2 || ids[0] != 0 || ids[1] != 2 {
		t.Fatalf("surviving clusters = %v, want [0 2]", ids)
	}
}

func TestConsolidateKeepsPartialOverlap(t *testing.T) {
	mk := func(id int, members ...int) *cluster {
		c := &cluster{id: id, members: map[int]bool{}}
		for _, m := range members {
			c.members[m] = true
		}
		return c
	}
	e := &engine{cfg: Config{MinDistinct: 2}}
	// The small cluster has 2 members of its own → survives.
	e.clusters = []*cluster{
		mk(0, 1, 2, 3, 4),
		mk(1, 1, 2, 10, 11),
	}
	if got := e.consolidate(); got != 0 {
		t.Fatalf("eliminated = %d, want 0", got)
	}
}

func TestConsolidateDuplicateClusters(t *testing.T) {
	mk := func(id int, members ...int) *cluster {
		c := &cluster{id: id, members: map[int]bool{}}
		for _, m := range members {
			c.members[m] = true
		}
		return c
	}
	// Two identical clusters: exactly one must survive.
	e := &engine{cfg: Config{MinDistinct: 1}}
	e.clusters = []*cluster{mk(0, 1, 2, 3), mk(1, 1, 2, 3)}
	if got := e.consolidate(); got != 1 {
		t.Fatalf("eliminated = %d, want 1", got)
	}
	if len(e.clusters) != 1 {
		t.Fatalf("%d clusters survive, want 1", len(e.clusters))
	}
}

func TestConsolidateSingleClusterNoOp(t *testing.T) {
	e := &engine{cfg: Config{MinDistinct: 100}}
	e.clusters = []*cluster{{id: 0, members: map[int]bool{1: true}}}
	if got := e.consolidate(); got != 0 {
		t.Fatalf("single cluster eliminated = %d, want 0", got)
	}
}

func TestAdjustThresholdMovesTowardValley(t *testing.T) {
	e := &engine{
		cfg: Config{HistogramBuckets: 20},
		thr: ThresholdAdjuster{LogT: math.Log(3.0), Buckets: 20, Sticky: true},
	}
	// Bimodal log-similarities: background mass near log-sim −2, member
	// mass near +6, valley between them.
	var sims []float64
	for i := 0; i < 500; i++ {
		sims = append(sims, -2+0.3*float64(i%7))
	}
	for i := 0; i < 200; i++ {
		sims = append(sims, 6+0.2*float64(i%5))
	}
	tBefore := e.thr.Threshold()
	tHat := e.adjustThreshold(sims, false)
	if tHat == 0 {
		t.Fatal("no valley found in clearly bimodal data")
	}
	tAfter := e.thr.Threshold()
	if math.Abs(tAfter-(tBefore+tHat)/2) > 1e-9 && !e.thr.stable {
		t.Fatalf("t moved to %v, want midpoint of %v and %v", tAfter, tBefore, tHat)
	}
}

func TestAdjustThresholdStabilizes(t *testing.T) {
	e := &engine{
		cfg: Config{HistogramBuckets: 10},
		thr: ThresholdAdjuster{Buckets: 10, Sticky: true},
	}
	// Valley will land somewhere; drive t there and verify the 1% rule
	// eventually freezes it.
	var sims []float64
	for i := 0; i < 300; i++ {
		sims = append(sims, -3+0.01*float64(i%10))
	}
	for i := 0; i < 300; i++ {
		sims = append(sims, 5+0.01*float64(i%10))
	}
	e.thr.LogT = 0
	for i := 0; i < 50 && !e.thr.stable; i++ {
		e.adjustThreshold(sims, false)
	}
	if !e.thr.stable {
		t.Fatalf("threshold never stabilized; t = %v", e.thr.Threshold())
	}
}

func TestAdjustThresholdTooFewSamples(t *testing.T) {
	e := &engine{
		cfg: Config{HistogramBuckets: 100},
		thr: ThresholdAdjuster{LogT: 1, Buckets: 100, Sticky: true},
	}
	if got := e.adjustThreshold([]float64{1, 2, 3}, false); got != 0 {
		t.Fatalf("valley from 3 samples = %v, want 0 (skip)", got)
	}
	if e.thr.LogT != 1 {
		t.Fatal("threshold must not move without a valley")
	}
}

func TestClampThreshold(t *testing.T) {
	if got := clampThreshold(0); got != minThreshold {
		t.Fatalf("clamp low = %v", got)
	}
	if got := clampThreshold(math.Inf(1)); got != maxThreshold {
		t.Fatalf("clamp high = %v", got)
	}
	if got := clampThreshold(2.5); got != 2.5 {
		t.Fatalf("clamp identity = %v", got)
	}
}

// TestForEachWorkerCoversAll checks that forEachWorker visits every index
// exactly once and that every range of two or more indices goes through
// the pool: the apply phase and the snapshot compiles fan out over as few
// as two clusters.
func TestForEachWorkerCoversAll(t *testing.T) {
	reg := obs.NewRegistry()
	p := pool.New(3)
	p.Instrument(reg, "cluseq_pool")
	tasks := reg.Counter("cluseq_pool_tasks_total")
	e := &engine{pool: p}
	for _, n := range []int{1, 2, 3, 1000} {
		before := tasks.Value()
		hits := make([]atomic.Int32, n)
		e.forEachWorker(n, func(i int) { hits[i].Add(1) })
		for i := range hits {
			if h := hits[i].Load(); h != 1 {
				t.Fatalf("n=%d: index %d visited %d times", n, i, h)
			}
		}
		want := int64(n)
		if n < 2 {
			want = 0
		}
		if got := tasks.Value() - before; got != want {
			t.Errorf("n=%d: %d tasks went through the pool, want %d", n, got, want)
		}
	}
	// Serial path: no pool.
	e.pool = nil
	hits := make([]int32, 1000)
	e.forEachWorker(len(hits), func(i int) { hits[i]++ })
	for i, h := range hits {
		if h != 1 {
			t.Fatalf("serial: index %d visited %d times", i, h)
		}
	}
	// Zero-length never calls fn.
	e.pool = p
	e.forEachWorker(0, func(i int) { t.Error("called on empty range") })
}

func TestSequenceOrderStrategies(t *testing.T) {
	db := testDB(t, 30, 2, 0, 61)
	e := &engine{db: db, cfg: Config{Order: OrderFixed}, rng: newTestRand(1)}
	fixed := e.sequenceOrder()
	for i, v := range fixed {
		if v != i {
			t.Fatalf("fixed order not identity at %d: %d", i, v)
		}
	}
	e.cfg.Order = OrderRandom
	r1 := e.sequenceOrder()
	sorted := append([]int(nil), r1...)
	sort.Ints(sorted)
	for i, v := range sorted {
		if v != i {
			t.Fatalf("random order is not a permutation: %v", r1)
		}
	}
	// Cluster-based order: members of cluster 0 first.
	e.cfg.Order = OrderClusterBased
	e.clusters = []*cluster{
		{id: 0, members: map[int]bool{5: true, 6: true}},
		{id: 1, members: map[int]bool{2: true}},
	}
	cb := e.sequenceOrder()
	if len(cb) != db.Len() {
		t.Fatalf("cluster-based order has %d entries, want %d", len(cb), db.Len())
	}
	if !((cb[0] == 5 && cb[1] == 6) || (cb[0] == 6 && cb[1] == 5)) || cb[2] != 2 {
		t.Fatalf("cluster-based order = %v, want cluster members first", cb[:4])
	}
	seen := map[int]bool{}
	for _, v := range cb {
		if seen[v] {
			t.Fatalf("duplicate index %d in cluster-based order", v)
		}
		seen[v] = true
	}
}

// TestApplyPhaseRecompiles pins the apply phase's ski-rental rule on a
// run whose clusters join sequences early in a pass, leaving their
// snapshots stale with most of the order still to score. A task must
// recompile its cluster's stale snapshot once it has tree-scanned one
// budget of symbols, so it never scans more than one budget plus one
// sequence between compiles. The compiles it makes must reach the
// trace, the compile counter and the compile-time histogram, and leave
// the results identical at Workers 1 and 2.
func TestApplyPhaseRecompiles(t *testing.T) {
	db := determinismDB(t, 11)
	longest := 0
	for _, s := range db.Sequences {
		longest = max(longest, len(s.Symbols))
	}
	var (
		mu       sync.Mutex
		compiles int
	)
	applyScanHook = func(cluster int, compiled bool, scanned, budget int) {
		mu.Lock()
		defer mu.Unlock()
		if compiled {
			compiles++
		}
		if scanned > budget+longest {
			t.Errorf("cluster %d tree-scanned %d symbols since its last compile, past its budget of %d plus one sequence", cluster, scanned, budget)
		}
	}
	defer func() { applyScanHook = nil }()

	var results []*Result
	for _, workers := range []int{1, 2} {
		compiles = 0
		cfg := determinismConfigs()["base"]
		cfg.Workers = workers
		cfg.Obs = obs.NewRegistry()
		res, err := Cluster(db, cfg)
		if err != nil {
			t.Fatal(err)
		}
		traced := 0
		for _, it := range res.Trace {
			traced += it.SnapshotCompiles
		}
		if compiles == 0 {
			t.Fatalf("Workers %d: no apply task recompiled a stale snapshot", workers)
		}
		if traced < compiles {
			t.Errorf("Workers %d: the trace counts %d compiles, the apply phase alone made %d", workers, traced, compiles)
		}
		counted := cfg.Obs.Counter("cluseq_engine_snapshot_compiles_total").Value()
		timed := cfg.Obs.Histogram("cluseq_engine_snapshot_compile_seconds", 0, 1, 200).Count()
		if counted < int64(traced) || timed != counted {
			t.Errorf("Workers %d: compile counter %d and histogram count %d, want equal and at least the trace's %d", workers, counted, timed, traced)
		}
		results = append(results, res)
	}
	if !reflect.DeepEqual(results[0], results[1]) {
		t.Errorf("Workers 1 and 2 disagree:\nserial:   %+v\nparallel: %+v", summary(results[0]), summary(results[1]))
	}
}
