package core

import (
	"math"
	"math/rand/v2"
	"runtime"
	"sort"
	"sync/atomic"
	"time"

	"cluseq/internal/obs"
	"cluseq/internal/pool"
	"cluseq/internal/pst"
	"cluseq/internal/seq"
)

// cluster is one live cluster during the run.
type cluster struct {
	id      int
	seedIdx int
	tree    *pst.Tree
	// members is the set of database indices currently in the cluster,
	// rebuilt by every reclustering pass.
	members map[int]bool
	// cache holds, per database index, the last similarity computed
	// against this cluster's tree, stamped with the tree version it was
	// computed at (see simCacheEntry). Allocated on first scoring.
	cache []simCacheEntry
	// snap is the compiled scoring snapshot of tree (see pst.Snapshot),
	// refreshed by ensureSnapshots whenever the tree version moves. It is
	// compiled before each parallel fan-out, by the one task that owns
	// the cluster, and read-only inside, so workers scan flat arrays with
	// no locks. Every score goes through snap.Score, which falls back to
	// the tree scan while the snapshot is stale. In the apply phase a
	// join bumps the version, and the cluster's own task re-scores its
	// later sequences against the mutated tree: by tree scans until they
	// have cost about one compile, then by a snapshot it recompiles (see
	// applyScore).
	snap *pst.Snapshot
}

// simCacheEntry is one slot of a cluster's similarity cache. The entry
// is valid exactly while version equals the cluster tree's current
// pst.Tree.Version: tree versions start at 1 and strictly increase on
// every mutation, so the zero-valued entry never matches and any insert
// or prune invalidates the whole cluster's column implicitly, with no
// eviction bookkeeping.
type simCacheEntry struct {
	version uint64
	sim     pst.Similarity
}

// engine carries the mutable state of one clustering run.
type engine struct {
	db         *seq.Database
	cfg        Config
	rng        *rand.Rand
	background []float64
	treeCfg    pst.Config // every cluster tree's, checked by Cluster

	clusters []*cluster
	// thr holds the §4.6 threshold state (see ThresholdAdjuster); the
	// batch engine runs it Sticky so a converged threshold stays put.
	thr    ThresholdAdjuster
	tMoved bool // t changed during the current iteration

	// pool serves every parallel phase of the run; nil when Workers=1.
	pool *pool.Pool
	// cacheHits counts (sequence, cluster) pairs whose similarity was
	// still valid from an earlier pass; cacheMisses counts actual
	// similarity evaluations. Reset per reclustering pass, atomic
	// because the scoring phase updates them from pool workers.
	cacheHits   atomic.Int64
	cacheMisses atomic.Int64

	// growth-factor bookkeeping (§4.1).
	prevNew        int
	prevEliminated int

	nextID int

	// met holds the run's metric handles (zero value = all no-ops);
	// iterCompiles counts snapshot compilations within the current
	// iteration for IterationTrace and the log line.
	met          engineMetrics
	iterCompiles int
}

func (e *engine) logf(format string, args ...any) {
	if e.cfg.Logf != nil {
		e.cfg.Logf(format, args...)
	}
}

func (e *engine) newTree() *pst.Tree { return pst.MustNew(e.treeCfg) }

// membershipOf returns, per sequence, the sorted IDs of clusters holding
// it; used to detect convergence.
//
//cluseq:deterministic
func (e *engine) membershipOf() [][]int {
	out := make([][]int, e.db.Len())
	for _, c := range e.clusters {
		for i := range c.members {
			out[i] = append(out[i], c.id)
		}
	}
	for i := range out {
		sort.Ints(out[i])
	}
	return out
}

//cluseq:deterministic
func (e *engine) unclusteredIndices() []int {
	covered := make([]bool, e.db.Len())
	for _, c := range e.clusters {
		for i := range c.members {
			covered[i] = true
		}
	}
	var out []int
	for i, cov := range covered {
		if !cov {
			out = append(out, i)
		}
	}
	return out
}

// run executes the outer loop of Figure 2.
func (e *engine) run() (*Result, error) {
	e.met = newEngineMetrics(e.cfg.Obs, e.cfg.Prune)
	if w := e.workers(); w > 1 {
		e.pool = pool.New(w - 1)
		e.pool.Instrument(e.cfg.Obs, "cluseq_pool")
	}
	res := &Result{n: e.db.Len()}
	prevMembership := e.membershipOf()
	// Each iteration, and refinement, is one job trace on Config.Flight,
	// begun sampled so the recorder keeps it. The first job mints the
	// run's trace ID and later ones adopt it: one run, one trace ID.
	jobCtx := obs.TraceContext{Sampled: true}
	for iter := 0; iter < e.cfg.MaxIterations; iter++ {
		e.iterCompiles = 0
		job := e.cfg.Flight.Begin("cluster_iteration", jobCtx)
		jobCtx.TraceID = job.TraceID()
		trace := IterationTrace{}

		// 1. New cluster generation (§4.1).
		start := time.Now()
		sp := job.StartSpan("generate")
		kn := e.newClusterBudget(iter)
		created := e.generateClusters(kn)
		sp.End()
		e.met.observePhase(e.met.phaseGenerate, start)
		trace.NewClusters = created
		e.prevNew = created

		// 2. Sequence reclustering (§4.2-4.4), collecting every
		// sequence-cluster log-similarity for the §4.6 histogram.
		// recluster emits its own score/apply spans.
		logSims := e.recluster(job)
		trace.CacheHits = int(e.cacheHits.Load())
		trace.CacheMisses = int(e.cacheMisses.Load())

		// 3. Cluster consolidation (§4.5).
		start = time.Now()
		sp = job.StartSpan("consolidate")
		eliminated := e.consolidate()
		sp.End()
		e.met.observePhase(e.met.phaseConsolidate, start)
		trace.Consolidated = eliminated
		e.prevEliminated = eliminated

		membership := e.membershipOf()
		moves := 0
		for i := range membership {
			if len(membership[i]) != len(prevMembership[i]) {
				moves++
				continue
			}
			for j := range membership[i] {
				if membership[i][j] != prevMembership[i][j] {
					moves++
					break
				}
			}
		}
		trace.MembershipMoves = moves

		// 4. Optional adjustment of t (§4.6). The adjuster sees whether
		// the iteration was starved (no moves, much unclustered) so the
		// auto valley estimator can unstick a threshold that settled
		// above the reach of fresh seed clusters.
		e.tMoved = false
		if !e.cfg.FixedThreshold {
			start = time.Now()
			sp = job.StartSpan("threshold")
			unclustered := len(e.unclusteredIndices())
			starved := moves == 0 && unclustered > e.db.Len()/3
			trace.ValleyEstimate = e.adjustThreshold(logSims, starved)
			sp.End()
			e.met.observePhase(e.met.phaseThreshold, start)
		}
		trace.Clusters = len(e.clusters)
		trace.Threshold = e.thr.Threshold()
		trace.Unclustered = len(e.unclusteredIndices())
		trace.SnapshotCompiles = e.iterCompiles
		e.observeIteration(&trace)
		res.Trace = append(res.Trace, trace)
		res.Iterations = iter + 1
		hitRate := 0.0
		if tot := trace.CacheHits + trace.CacheMisses; tot > 0 {
			hitRate = 100 * float64(trace.CacheHits) / float64(tot)
		}
		e.logf("iter %d: +%d new, -%d consolidated, %d clusters, %d moves, t=%.4g, %d unclustered, cache %.1f%% hit, %d snapshot compiles",
			iter+1, trace.NewClusters, trace.Consolidated, trace.Clusters,
			moves, trace.Threshold, trace.Unclustered, hitRate, trace.SnapshotCompiles)
		e.cfg.Flight.Finish(job, 200)

		// Termination (§4): same number of clusters, no membership change,
		// and the similarity threshold has settled (a still-descending t
		// can otherwise strand the run before any cluster can form).
		if moves == 0 && created == eliminated && !e.tMoved && iter > 0 {
			break
		}
		prevMembership = membership
	}

	if e.cfg.RefinePasses > 0 {
		job := e.cfg.Flight.Begin("cluster_refine", jobCtx)
		start := time.Now()
		sp := job.StartSpan("refine")
		e.refine()
		sp.End()
		e.met.observePhase(e.met.phaseRefine, start)
		e.cfg.Flight.Finish(job, 200)
	}

	res.FinalThreshold = e.thr.Threshold()
	res.Unclustered = e.unclusteredIndices()
	// Stable output order: by cluster size descending, then ID.
	sort.Slice(e.clusters, func(i, j int) bool {
		if len(e.clusters[i].members) != len(e.clusters[j].members) {
			return len(e.clusters[i].members) > len(e.clusters[j].members)
		}
		return e.clusters[i].id < e.clusters[j].id
	})
	for _, c := range e.clusters {
		info := &ClusterInfo{
			ID:        c.id,
			SeedIndex: c.seedIdx,
			TreeStats: c.tree.Stats(),
		}
		if e.cfg.KeepTrees {
			info.Tree = c.tree
		}
		for i := range c.members {
			info.Members = append(info.Members, i)
		}
		sort.Ints(info.Members)
		res.Clusters = append(res.Clusters, info)
	}
	res.Primary = e.primaryAssignment()
	return res, nil
}

// refine runs the post-convergence batch refinement passes (see
// Config.RefinePasses): rebuild every tree from its current members' full
// sequences, recompute membership at the settled threshold, consolidate.
//
//cluseq:deterministic
func (e *engine) refine() {
	for pass := 0; pass < e.cfg.RefinePasses; pass++ {
		for _, c := range e.clusters {
			tree := e.newTree()
			// Re-insert each member's best-scoring segment under the old
			// tree (not the whole sequence: the §4.4 segment updates are
			// what keep cluster trees focused on the shared signal rather
			// than the background).
			members := make([]int, 0, len(c.members))
			for m := range c.members {
				members = append(members, m)
			}
			sort.Ints(members)
			segs := make([][2]int, len(members))
			e.ensureSnapshots(c)
			e.forEachWorker(len(members), func(i int) {
				s := e.db.Sequences[members[i]]
				sim := c.snap.Score(c.tree, s.Symbols, e.background)
				segs[i] = [2]int{sim.Start, sim.End}
			})
			for i, m := range members {
				tree.Insert(e.db.Sequences[m].Symbols[segs[i][0]:segs[i][1]])
			}
			e.met.countPrunes(tree, 0, 0)
			c.tree = tree
			// Version stamps identify states of one tree only; swapping
			// in a rebuilt tree (whose counter restarts) could collide
			// with stale stamps, so the cache — and the old tree's
			// snapshot — must go with the old tree.
			c.cache = nil
			c.snap = nil
		}
		// Pure reassignment: no incremental insertion, so membership
		// reflects exactly the rebuilt statistics. The rebuilt trees
		// carry fresh versions, so the scoring phase recomputes every
		// pair; membership application never mutates a tree, so the
		// cached entries stay valid throughout the serial loop.
		e.scoreClusters()
		for si, s := range e.db.Sequences {
			if len(s.Symbols) == 0 {
				continue
			}
			for _, c := range e.clusters {
				sim := e.cachedSim(c, si, s.Symbols, false)
				if e.normalizedLogSim(sim, len(s.Symbols)) >= e.thr.LogT {
					c.members[si] = true
				} else {
					delete(c.members, si)
				}
			}
		}
		e.consolidate()
	}
}

// primaryAssignment scores every sequence against the clusters it belongs
// to and returns the index of its best cluster (−1 when unclustered).
//
//cluseq:deterministic
func (e *engine) primaryAssignment() []int {
	out := make([]int, e.db.Len())
	for i := range out {
		out[i] = -1
	}
	memberOf := make([][]int, e.db.Len())
	for ci, c := range e.clusters {
		for m := range c.members {
			memberOf[m] = append(memberOf[m], ci)
		}
	}
	e.ensureSnapshots(e.clusters...)
	e.forEachWorker(e.db.Len(), func(si int) {
		clusters := memberOf[si]
		if len(clusters) == 0 {
			return
		}
		if len(clusters) == 1 {
			out[si] = clusters[0]
			return
		}
		s := e.db.Sequences[si]
		best, bestSim := clusters[0], math.Inf(-1)
		for _, ci := range clusters {
			c := e.clusters[ci]
			sim := e.normalizedLogSim(c.snap.Score(c.tree, s.Symbols, e.background), len(s.Symbols))
			if sim > bestSim {
				bestSim = sim
				best = ci
			}
		}
		out[si] = best
	})
	return out
}

// newClusterBudget computes k_n per §4.1: the initial k on the first
// iteration, then k'·f with growth factor f = max(k'_n − k'_c, 0)/k'_n.
//
// The paper prints f = max{k'_n − k'_c, 0}/k'_c, but also states
// 0 ≤ f ≤ 1 and that f ≈ 1 when consolidation eliminates little — both of
// which hold only with k'_n as the denominator (the surviving fraction of
// the previous iteration's new clusters); we read the printed k'_c as a
// typo.
//
//cluseq:deterministic
func (e *engine) newClusterBudget(iter int) int {
	if iter == 0 {
		return e.cfg.InitialClusters
	}
	if e.prevNew <= 0 {
		// Nothing was generated last iteration (no unclustered seeds were
		// available, or the pace had dropped to zero). The paper's formula
		// is silent here; keep minimal seeding pressure so sequences that
		// later fall out of clusters (e.g. after t rises) can still found
		// new ones. A one-cluster probe that gets consolidated away does
		// not block termination, since created == eliminated.
		return 1
	}
	f := float64(max(e.prevNew-e.prevEliminated, 0)) / float64(e.prevNew)
	budget := int(float64(len(e.clusters))*f + 0.5)
	if budget == 0 {
		budget = 1
	}
	return budget
}

// generateClusters seeds up to kn new clusters from the unclustered
// sequences (§4.1): sample m = SampleFactor·kn candidates, build one PST
// per candidate, then greedily pick the candidate with the least maximal
// similarity to every existing cluster and already-picked seed.
//
//cluseq:deterministic
func (e *engine) generateClusters(kn int) int {
	if kn <= 0 {
		return 0
	}
	unclustered := e.unclusteredIndices()
	if len(unclustered) == 0 {
		return 0
	}
	if kn > len(unclustered) {
		kn = len(unclustered)
	}
	m := e.cfg.SampleFactor * kn
	if m > len(unclustered) {
		m = len(unclustered)
	}
	// Draw the sample.
	perm := e.rng.Perm(len(unclustered))
	sample := make([]int, m)
	for i := 0; i < m; i++ {
		sample[i] = unclustered[perm[i]]
	}

	// Highest similarity of each candidate to any cluster in T (existing
	// clusters now, updated incrementally as seeds are added).
	maxSim := make([]float64, m)
	for i := range maxSim {
		maxSim[i] = math.Inf(-1)
	}
	e.ensureSnapshots(e.clusters...)
	e.forEachWorker(m, func(i int) {
		syms := e.db.Sequences[sample[i]].Symbols
		for _, c := range e.clusters {
			s := e.normalizedLogSim(c.snap.Score(c.tree, syms, e.background), len(syms))
			if s > maxSim[i] {
				maxSim[i] = s
			}
		}
	})

	picked := make([]bool, m)
	created := 0
	for step := 0; step < kn; step++ {
		best, bestSim := -1, math.Inf(1)
		for i := 0; i < m; i++ {
			if !picked[i] && maxSim[i] < bestSim {
				bestSim = maxSim[i]
				best = i
			}
		}
		if best < 0 {
			break
		}
		picked[best] = true
		idx := sample[best]
		c := &cluster{
			id:      e.nextID,
			seedIdx: idx,
			tree:    e.newTree(),
			members: map[int]bool{idx: true},
		}
		e.nextID++
		c.tree.Insert(e.db.Sequences[idx].Symbols)
		e.met.countPrunes(c.tree, 0, 0)
		e.clusters = append(e.clusters, c)
		created++
		// Update remaining candidates against the new seed cluster. The
		// fresh seed tree is scored against every remaining candidate, so
		// it is worth compiling too.
		e.ensureSnapshots(c)
		for i := 0; i < m; i++ {
			if picked[i] {
				continue
			}
			syms := e.db.Sequences[sample[i]].Symbols
			s := e.normalizedLogSim(c.snap.Score(c.tree, syms, e.background), len(syms))
			if s > maxSim[i] {
				maxSim[i] = s
			}
		}
	}
	return created
}

// ensureSnapshots (re)compiles the scoring snapshot of every given
// cluster whose tree has moved past the one it holds; call before any
// parallel scoring fan-out. The stale clusters are picked serially and
// compiled across the pool, one task per cluster: a task writes only its
// own cluster's snap and reads only its own tree, so the compiles are
// independent, and the counters are bumped once the fan-out has joined.
//
//cluseq:deterministic
func (e *engine) ensureSnapshots(cs ...*cluster) {
	var stale []*cluster
	for _, c := range cs {
		if !c.snap.Valid(c.tree) {
			stale = append(stale, c)
		}
	}
	e.forEachWorker(len(stale), func(i int) { e.compileSnapshot(stale[i]) })
	e.countCompiles(len(stale))
}

// compileSnapshot compiles c's snapshot of its tree's current state and
// times the compile. Only the task that owns c may call it.
//
//cluseq:deterministic
func (e *engine) compileSnapshot(c *cluster) {
	start := time.Now() //cluseq:allow determinism: timestamp feeds the compile-seconds histogram only, never the clustering state
	c.snap = c.tree.CompileSnapshot(e.background)
	e.met.snapCompileSeconds.ObserveSince(start)
}

// countCompiles adds k compiles to the iteration's trace and the compile
// counter; call it once a fan-out has joined.
func (e *engine) countCompiles(k int) {
	e.iterCompiles += k
	e.met.snapCompiles.Add(int64(k))
}

// staleShare sets the apply phase's recompile budget: a task recompiles
// a stale snapshot once it has tree-scanned Nodes·n/staleShare symbols
// since the last compile. A compile writes about Nodes·n score-row and
// transition entries, and one tree-scanned symbol costs as much as five
// to nine of them (DESIGN.md §6), so the budget is one to two compiles'
// worth of tree scans — the ski-rental rule: rent (scan the tree) until
// the rent paid matches the price, then buy (compile).
const staleShare = 4

// applyScanHook, when set, sees every apply-phase score of a pair whose
// cached value is stale while the cluster's snapshot is stale too: the
// cluster, whether its task compiled before scoring, the symbols the
// task had tree-scanned since its last compile (counting this score's
// scan, when it made one) and the budget. Tests set it; apply tasks call
// it concurrently.
var applyScanHook func(clusterID int, compiled bool, scanned, budget int)

// applyScore is cachedSim for the apply phase, whose tasks re-score a
// cluster's later sequences after a join has left its snapshot stale.
// *scanned holds the symbols the task has tree-scanned since the
// snapshot was last compiled. A stale read scans the tree while that
// count is below the budget staleShare sets from the stale snapshot's
// own size, and otherwise recompiles the snapshot first and scores
// through it. The rule counts symbols, not time, so every task makes the
// same compiles at any worker count; *compiles counts them.
//
//cluseq:deterministic
func (e *engine) applyScore(c *cluster, si int, syms []seq.Symbol, scanned, compiles *int) pst.Similarity {
	if c.cache[si].version != c.tree.Version() && !c.snap.Valid(c.tree) {
		budget := c.snap.Nodes() * e.treeCfg.AlphabetSize / staleShare
		compiled := *scanned >= budget
		if !compiled {
			*scanned += len(syms)
		}
		if applyScanHook != nil {
			applyScanHook(c.id, compiled, *scanned, budget)
		}
		if compiled {
			e.compileSnapshot(c)
			*compiles++
			*scanned = 0
		}
	}
	return e.cachedSim(c, si, syms, false)
}

// normalizedLogSim converts a similarity to the per-symbol log scale the
// thresholds live on (see Config.SimilarityThreshold).
//
//cluseq:deterministic
func (e *engine) normalizedLogSim(sim pst.Similarity, seqLen int) float64 {
	if e.cfg.RawSimilarity || seqLen == 0 {
		return sim.LogSim
	}
	return sim.LogSim / float64(seqLen)
}

// scoreClusters is the parallel scoring phase: it fans sequences out
// across the worker pool (sequence-major — each worker owns a sequence
// and walks every cluster, amortizing the fork/join over the whole
// database instead of paying it per sequence) and ensures every live
// cluster's similarity cache holds an entry stamped with the cluster
// tree's current version. Trees are strictly read-only here (see the
// pst.Tree concurrency contract) and each worker writes only its own
// sequence's cache slots, so the phase is race-free and its results are
// independent of worker count and scheduling.
//
// Pairs whose cluster tree is unchanged since an earlier pass keep
// their cached value untouched — the cross-iteration cache hit that
// makes late, nearly-converged iterations almost free. CacheOff
// forfeits that by clearing every cache up front.
//
//cluseq:deterministic
func (e *engine) scoreClusters() {
	if len(e.clusters) == 0 {
		return
	}
	for _, c := range e.clusters {
		if c.cache == nil || e.cfg.CacheOff {
			c.cache = make([]simCacheEntry, e.db.Len())
		}
	}
	e.ensureSnapshots(e.clusters...)
	e.forEachWorker(e.db.Len(), func(si int) {
		s := e.db.Sequences[si]
		if len(s.Symbols) == 0 {
			return
		}
		for _, c := range e.clusters {
			e.cachedSim(c, si, s.Symbols, true)
		}
	})
}

// cachedSim returns the similarity of sequence si to cluster c, reusing
// the cache entry when it matches the tree's current version and
// re-scoring (and restamping) it otherwise. countHit attributes a valid
// entry to the hit counter — set by the scoring phase, where a hit means
// a pair carried over from a previous iteration; the apply phase passes
// false, since there a valid entry is normally just the scoring phase's
// own work being read back.
//
//cluseq:deterministic
func (e *engine) cachedSim(c *cluster, si int, syms []seq.Symbol, countHit bool) pst.Similarity {
	ent := &c.cache[si]
	if v := c.tree.Version(); ent.version != v {
		ent.sim = c.snap.Score(c.tree, syms, e.background)
		ent.version = v
		e.cacheMisses.Add(1)
	} else if countHit {
		e.cacheHits.Add(1)
	}
	return ent.sim
}

// recluster runs one §4.2 pass in two phases, each a span on job: the
// parallel scoring phase above, then the apply phase, which joins clusters and inserts
// best segments with every sequence examined in the exact §6.3 order.
//
// The apply phase is cluster-major: each cluster walks the whole order
// as its own pool task. A join inserts into the joined cluster's tree
// only (§4.4), and the threshold is fixed for the whole pass, so a
// cluster's decisions depend on nothing but its own tree and the order:
// a join bumps that tree's version, and applyScore transparently
// re-scores the cluster's later sequences against the mutated tree,
// recompiling its snapshot when the tree scans have cost about one
// compile. A task writes only its own cluster's tree, snapshot, members
// and cache, its own row of scores and its own compile count, so the
// results are bit-identical to a fully serial, sequence-major pass at
// any worker count. Returns all (normalized)
// log-similarities for the threshold histogram, gathered from the rows
// in sequence-major order after the fan-out.
//
//cluseq:deterministic
func (e *engine) recluster(job *obs.RequestTrace) []float64 {
	e.cacheHits.Store(0)
	e.cacheMisses.Store(0)
	start := time.Now() //cluseq:allow determinism: timestamp feeds the score-phase span and histogram only, never the clustering state
	sp := job.StartSpan("score")
	e.scoreClusters()
	sp.End()
	e.met.observePhase(e.met.phaseScore, start)

	start = time.Now() //cluseq:allow determinism: timestamp feeds the apply-phase span and histogram only, never the clustering state
	sp = job.StartSpan("apply")
	order := e.sequenceOrder()
	n := len(order)
	// norms[ci*n+pos] is cluster ci's score for the sequence at position
	// pos of the order; one row per task, so no two tasks share a slot,
	// nor a slot of compiles.
	norms := make([]float64, len(e.clusters)*n)
	compiles := make([]int, len(e.clusters))
	e.forEachWorker(len(e.clusters), func(ci int) {
		c := e.clusters[ci]
		row := norms[ci*n : (ci+1)*n]
		scanned := 0
		for pos, si := range order {
			s := e.db.Sequences[si]
			if len(s.Symbols) == 0 {
				continue
			}
			sim := e.applyScore(c, si, s.Symbols, &scanned, &compiles[ci])
			norm := e.normalizedLogSim(sim, len(s.Symbols))
			row[pos] = norm
			if norm >= e.thr.LogT {
				// §4.2/§4.4: when a sequence joins a cluster, the segment
				// producing the maximum similarity updates the tree — on
				// the join transition only; re-inserting a continuing
				// member every iteration would let the tree memorize its
				// members, inflate their similarities without bound, and
				// drag the §4.6 threshold up until it locks everyone
				// else out.
				if !c.members[si] {
					c.members[si] = true
					events, nodes := c.tree.PruneEvents(), c.tree.PrunedNodes()
					if e.cfg.InsertWhole {
						c.tree.Insert(s.Symbols)
					} else {
						c.tree.Insert(s.Symbols[sim.Start:sim.End])
					}
					e.met.countPrunes(c.tree, events, nodes)
				}
			} else {
				delete(c.members, si)
			}
		}
	})
	for _, k := range compiles {
		e.countCompiles(k)
	}
	logSims := make([]float64, 0, len(norms))
	for pos, si := range order {
		if len(e.db.Sequences[si].Symbols) == 0 {
			continue
		}
		for ci, c := range e.clusters {
			norm := norms[ci*n+pos]
			// The seed's similarity to its own tree is a memorization
			// artifact (the whole sequence was inserted), far above any
			// genuine member's score; keep it out of the threshold
			// histogram.
			if !math.IsInf(norm, -1) && si != c.seedIdx {
				logSims = append(logSims, norm)
			}
		}
	}
	sp.End()
	e.met.observePhase(e.met.phaseApply, start)
	return logSims
}

// sequenceOrder yields the §6.3 examination order.
//
//cluseq:deterministic
func (e *engine) sequenceOrder() []int {
	n := e.db.Len()
	switch e.cfg.Order {
	case OrderRandom:
		return e.rng.Perm(n)
	case OrderClusterBased:
		out := make([]int, 0, n)
		seen := make([]bool, n)
		for _, c := range e.clusters {
			var members []int
			for i := range c.members {
				if !seen[i] {
					members = append(members, i)
					seen[i] = true
				}
			}
			sort.Ints(members)
			out = append(out, members...)
		}
		for i := 0; i < n; i++ {
			if !seen[i] {
				out = append(out, i)
			}
		}
		return out
	default: // OrderFixed
		out := make([]int, n)
		for i := range out {
			out[i] = i
		}
		return out
	}
}

// consolidate dismisses clusters covered by larger ones (§4.5): scanning
// in ascending size order, a cluster is dropped when fewer than
// MinDistinct of its members are outside every other surviving cluster of
// larger (or equal, later-scanned) size.
//
//cluseq:deterministic
func (e *engine) consolidate() int {
	if len(e.clusters) < 2 {
		return 0
	}
	idx := make([]int, len(e.clusters))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool {
		ca, cb := e.clusters[idx[a]], e.clusters[idx[b]]
		if len(ca.members) != len(cb.members) {
			return len(ca.members) < len(cb.members)
		}
		return ca.id > cb.id // among equals, newer clusters go first
	})
	dismissed := make([]bool, len(e.clusters))
	eliminated := 0
	for pos, ci := range idx {
		c := e.clusters[ci]
		distinct := 0
		for m := range c.members { //cluseq:allow determinism: pure counting with a threshold early-exit; the tally is independent of visit order
			coveredElsewhere := false
			// Only clusters later in the scan order (larger, or equal-size
			// older) count as cover, matching the paper's "other (larger)
			// clusters".
			for _, cj := range idx[pos+1:] {
				if !dismissed[cj] && e.clusters[cj].members[m] {
					coveredElsewhere = true
					break
				}
			}
			if !coveredElsewhere {
				distinct++
				if distinct >= e.cfg.MinDistinct {
					break
				}
			}
		}
		if distinct < e.cfg.MinDistinct {
			dismissed[ci] = true
			eliminated++
			if e.cfg.MergeConsolidation {
				e.mergeInto(c, idx[pos+1:], dismissed)
			}
		}
	}
	if eliminated == 0 {
		return 0
	}
	kept := e.clusters[:0]
	for i, c := range e.clusters {
		if !dismissed[i] {
			kept = append(kept, c)
		}
	}
	e.clusters = kept
	return eliminated
}

// mergeInto absorbs the dismissed cluster c into the surviving later-scan
// cluster sharing the most members (tree statistics and membership both),
// implementing the merge-consolidation extension.
//
//cluseq:deterministic
func (e *engine) mergeInto(c *cluster, later []int, dismissed []bool) {
	var target *cluster
	bestOverlap := -1
	for _, cj := range later {
		if dismissed[cj] {
			continue
		}
		cand := e.clusters[cj]
		overlap := 0
		for m := range c.members {
			if cand.members[m] {
				overlap++
			}
		}
		if overlap > bestOverlap {
			bestOverlap = overlap
			target = cand
		}
	}
	if target == nil || bestOverlap == 0 {
		return // nothing meaningfully overlaps; plain dismissal
	}
	events, nodes := target.tree.PruneEvents(), target.tree.PrunedNodes()+c.tree.PrunedNodes()
	if err := target.tree.Merge(c.tree); err != nil {
		// Trees within one run always share configuration; a mismatch
		// would be a programming error worth surfacing loudly.
		panic(err)
	}
	e.met.countPrunes(target.tree, events, nodes)
	for m := range c.members {
		target.members[m] = true
	}
}

// workers resolves the configured parallelism: Config.Workers, or
// GOMAXPROCS when it is zero.
func (e *engine) workers() int {
	if e.cfg.Workers <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return e.cfg.Workers
}

// forEachWorker runs fn(i) for i in [0, n), on the run's shared worker
// pool when one exists and there are at least two indices, serially
// otherwise. Every caller's per-index work is at least one full scan or
// compile, which costs far more than handing an index to a helper.
//
//cluseq:fanout
func (e *engine) forEachWorker(n int, fn func(i int)) {
	if e.pool == nil || n < 2 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	e.pool.Run(n, fn)
}
