package pst

import (
	"fmt"
	"math"
	"math/rand/v2"
	"testing"

	"cluseq/internal/seq"
)

// requireIdentical asserts the compiled scan agrees bit-for-bit with
// the tree scan — the defining property of the snapshot.
func requireIdentical(t *testing.T, tree *Tree, snap *Snapshot, probe []seq.Symbol, bg []float64) {
	t.Helper()
	slow := tree.Similarity(probe, bg)
	comp := snap.Similarity(probe)
	if comp != slow {
		t.Fatalf("Snapshot %+v != Similarity %+v (probe %v)", comp, slow, probe)
	}
}

// requireVirtualRows checks that a snapshot compiled exactly the nodes
// it predicts from — the root and the significant nodes, or every node
// under shrinkage — each with a score row of its own, and then the
// nodes the compiler appended to close them under suffix links. It
// returns the count of those virtual nodes: each hangs below an earlier
// node and scores with its parent's row, and so with its deepest real
// ancestor's.
func requireVirtualRows(t *testing.T, tree *Tree, snap *Snapshot) int {
	t.Helper()
	real := 0
	tree.Walk(func(x Slot) bool {
		if tree.cfg.Shrinkage > 0 || tree.Significant(x) {
			real++
		}
		return true
	})
	if rows := len(snap.logRatio) / snap.n; rows != real || len(snap.row) < real {
		t.Fatalf("%d score rows and %d compiled nodes for a tree of %d nodes, %d of which predict", rows, len(snap.row), tree.NumNodes(), real)
	}
	for i, r := range snap.row[:real] {
		if int(r) != i {
			t.Fatalf("real node %d scores with row %d, not its own", i, r)
		}
	}
	for v := real; v < len(snap.row); v++ {
		if p := snap.parent[v]; p >= int32(v) || snap.row[v] != snap.row[p] {
			t.Fatalf("virtual node %d hangs below node %d and scores with row %d, not its parent's", v, p, snap.row[v])
		}
	}
	return len(snap.row) - real
}

func uniformBg(n int) []float64 {
	bg := make([]float64, n)
	for i := range bg {
		bg[i] = 1 / float64(n)
	}
	return bg
}

// TestSnapshotMatchesTreeRandom sweeps random trees across the
// estimator's configuration space: PMin on/off, adaptive significance,
// the shrinkage estimator on every other trial, a §5.1 memory cap with
// a random pruning strategy on the last third, and all three
// transition-row mixes (per-node hybrid, all-dense, all-CSR — the
// latter two forced through the occupancy knob so the climb/override
// code paths are exercised regardless of tree shape). Capped trees
// mostly lose suffix-link closure, so their virtual nodes are scored
// through dense rows and CSR parent climbs alike.
func TestSnapshotMatchesTreeRandom(t *testing.T) {
	for _, mode := range rowMixes {
		t.Run(mode.name, func(t *testing.T) {
			oldOcc, oldAll := denseOccupancy, denseAllLimit
			denseOccupancy, denseAllLimit = mode.occupancy, mode.allLimit
			defer func() { denseOccupancy, denseAllLimit = oldOcc, oldAll }()
			rng := rand.New(rand.NewPCG(41, 42))
			virtual := 0
			for trial := 0; trial < 120; trial++ {
				alpha := 2 + rng.IntN(7)
				cfg := Config{
					AlphabetSize: alpha,
					MaxDepth:     1 + rng.IntN(6),
					Significance: 1 + rng.IntN(8),
				}
				if rng.IntN(2) == 0 {
					cfg.PMin = 0.5 / float64(alpha) * rng.Float64()
				}
				cfg.AdaptiveSignificance = rng.IntN(2) == 0
				if trial%2 == 1 {
					cfg.Shrinkage = 0.5 + 16*rng.Float64()
				}
				if trial >= 80 {
					cfg.MaxBytes = (8 + rng.IntN(56)) * (88 + 8*alpha + 48) // 8–63 nodes
					cfg.Prune = PruneStrategy(rng.IntN(4))
				}
				tree := MustNew(cfg)
				for k := 0; k < 1+rng.IntN(4); k++ {
					tree.Insert(randomSymbols(rng, 20+rng.IntN(150), alpha))
				}
				bg := randomBg(rng, alpha, false)
				snap := tree.CompileSnapshot(bg)
				if !snap.Valid(tree) {
					t.Fatal("fresh snapshot must be valid")
				}
				virtual += requireVirtualRows(t, tree, snap)
				for probe := 0; probe < 6; probe++ {
					requireIdentical(t, tree, snap, randomSymbols(rng, 1+rng.IntN(90), alpha), bg)
				}
			}
			if virtual == 0 {
				t.Fatal("no capped trial compiled a virtual node; the sweep misses the suffix-link closure")
			}
		})
	}
}

// TestSnapshotPrunedTree compiles from a pruned tree, which need not be
// suffix-closed any more: the snapshot must still match the tree scan
// exactly.
func TestSnapshotPrunedTree(t *testing.T) {
	rng := rand.New(rand.NewPCG(43, 44))
	tree := MustNew(Config{AlphabetSize: 4, MaxDepth: 5, Significance: 2, PMin: 0.01})
	tree.Insert(randomSymbols(rng, 400, 4))
	tree.Prune(tree.NumNodes() / 2)
	if tree.PrunedNodes() == 0 {
		t.Fatal("Prune evicted nothing")
	}
	bg := uniformBg(4)
	snap := tree.CompileSnapshot(bg)
	for probe := 0; probe < 20; probe++ {
		requireIdentical(t, tree, snap, randomSymbols(rng, 1+rng.IntN(80), 4), bg)
	}
}

// TestSnapshotNoSmoothing pins the PMin=0 regime, where impossible
// symbols contribute −Inf and restart the running segment.
func TestSnapshotNoSmoothing(t *testing.T) {
	rng := rand.New(rand.NewPCG(45, 46))
	tree := MustNew(Config{AlphabetSize: 3, MaxDepth: 4, Significance: 1})
	tree.Insert(randomSymbols(rng, 50, 2)) // symbol 2 never seen
	bg := []float64{0.4, 0.4, 0.2}
	snap := tree.CompileSnapshot(bg)
	for probe := 0; probe < 20; probe++ {
		requireIdentical(t, tree, snap, randomSymbols(rng, 1+rng.IntN(40), 3), bg)
	}
}

// TestSnapshotShrinkage covers the shrinkage estimator, whose blended
// estimate depends on the deepest matching node alone: the snapshot
// compiles one score row per tree node — a virtual node, in a pruned
// tree, takes its parent's — and scores exactly as the tree does,
// before and after an arena round trip.
func TestSnapshotShrinkage(t *testing.T) {
	for _, prune := range []bool{false, true} {
		t.Run(fmt.Sprintf("prune=%v", prune), func(t *testing.T) {
			rng := rand.New(rand.NewPCG(47, 48))
			// Expected-vector pruning evicts interior suffix contexts of
			// this tree, so the pruned case compiles virtual nodes.
			tree := MustNew(Config{AlphabetSize: 5, MaxDepth: 4, Significance: 3, Shrinkage: 8, PMin: 0.01, Prune: PruneExpectedVector})
			tree.Insert(randomSymbols(rng, 300, 5))
			if prune {
				tree.Prune(tree.NumNodes() / 2)
			}
			bg := uniformBg(5)
			snap := tree.CompileSnapshot(bg)
			if virtual := requireVirtualRows(t, tree, snap); (virtual > 0) != prune {
				t.Fatalf("prune=%v compiled %d virtual nodes", prune, virtual)
			}
			num := tree.NumNodes()
			if len(snap.logRatio) != num*5 {
				t.Fatalf("%d ratios for %d nodes, want one score row per tree node", len(snap.logRatio), num)
			}
			for i, r := range snap.row[:num] {
				if int(r) != i {
					t.Fatalf("node %d scores with row %d, want its own", i, r)
				}
			}
			loaded := reattach(t, snap)
			for probe := 0; probe < 20; probe++ {
				p := randomSymbols(rng, 1+rng.IntN(80), 5)
				requireIdentical(t, tree, snap, p, bg)
				requireIdentical(t, tree, loaded, p, bg)
			}
		})
	}
}

// TestSnapshotEmptyTreeAndEmptyProbe pins the degenerate inputs.
func TestSnapshotEmptyTreeAndEmptyProbe(t *testing.T) {
	bg := uniformBg(3)
	for _, pmin := range []float64{0, 0.05} {
		tree := MustNew(Config{AlphabetSize: 3, MaxDepth: 3, Significance: 2, PMin: pmin})
		snap := tree.CompileSnapshot(bg)
		if got := snap.Similarity(nil); !math.IsInf(got.LogSim, -1) || got.Start != 0 || got.End != 0 {
			t.Fatalf("empty probe: got %+v", got)
		}
		requireIdentical(t, tree, snap, []seq.Symbol{0, 1, 2, 2, 1}, bg)
	}
}

// TestSnapshotValidTracksVersion: any tree mutation must invalidate the
// snapshot, and snapshots must not be transferable across trees.
func TestSnapshotValidTracksVersion(t *testing.T) {
	rng := rand.New(rand.NewPCG(49, 50))
	tree := MustNew(Config{AlphabetSize: 4, MaxDepth: 3, Significance: 2})
	tree.Insert(randomSymbols(rng, 60, 4))
	bg := uniformBg(4)
	snap := tree.CompileSnapshot(bg)
	if !snap.Valid(tree) {
		t.Fatal("snapshot must be valid right after compilation")
	}
	other := MustNew(Config{AlphabetSize: 4, MaxDepth: 3, Significance: 2})
	if snap.Valid(other) {
		t.Fatal("snapshot must not validate against a different tree")
	}
	tree.Insert(randomSymbols(rng, 5, 4))
	if snap.Valid(tree) {
		t.Fatal("snapshot must be invalid after a mutation")
	}
	if snap.Version() == tree.Version() {
		t.Fatal("version stamp should lag the mutated tree")
	}
	// The stale snapshot still answers exactly for the state it froze —
	// recompiling at the new version must match the live tree again.
	fresh := tree.CompileSnapshot(bg)
	probe := randomSymbols(rng, 40, 4)
	if got, want := fresh.Similarity(probe), tree.Similarity(probe, bg); got != want {
		t.Fatalf("recompiled snapshot %+v != tree %+v", got, want)
	}
}

// TestSnapshotScore pins the one scoring rule for live trees: whatever
// state the snapshot is in — missing, stale after an Insert, compiled
// from another tree, or valid — Score returns Tree.Similarity's exact
// bits for the tree it is given.
func TestSnapshotScore(t *testing.T) {
	rng := rand.New(rand.NewPCG(51, 52))
	cfg := Config{AlphabetSize: 4, MaxDepth: 4, Significance: 2, PMin: 0.01}
	bg := uniformBg(4)
	grown := func() *Tree {
		tree := MustNew(cfg)
		tree.Insert(randomSymbols(rng, 200, 4))
		return tree
	}
	for _, tc := range []struct {
		name  string
		setup func() (*Snapshot, *Tree)
		// fallback: the snapshot itself answers for some other tree
		// state, so Score must not use it.
		fallback bool
	}{
		{"nil snapshot", func() (*Snapshot, *Tree) { return nil, grown() }, false},
		{"stale after Insert", func() (*Snapshot, *Tree) {
			tree := grown()
			snap := tree.CompileSnapshot(bg)
			tree.Insert(randomSymbols(rng, 200, 4))
			return snap, tree
		}, true},
		{"another tree", func() (*Snapshot, *Tree) { return grown().CompileSnapshot(bg), grown() }, true},
		{"valid", func() (*Snapshot, *Tree) {
			tree := grown()
			return tree.CompileSnapshot(bg), tree
		}, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			snap, tree := tc.setup()
			differs := false
			for probe := 0; probe < 20; probe++ {
				p := randomSymbols(rng, 1+rng.IntN(80), 4)
				want := tree.Similarity(p, bg)
				if got := snap.Score(tree, p, bg); got != want {
					t.Fatalf("Score %+v != Tree.Similarity %+v (probe %v)", got, want, p)
				}
				differs = differs || (snap != nil && snap.Similarity(p) != want)
			}
			if tc.fallback && !differs {
				t.Fatal("the snapshot agrees with the tree on every probe; the case cannot tell a fallback from a snapshot read")
			}
		})
	}
}

// TestSuffixLinkInvariant pins the property the transition automaton
// rests on: Insert keeps a tree suffix-closed — every node's context
// minus its most recent symbol is itself a node — so a snapshot of an
// unpruned tree compiles its automaton without a virtual node, to the
// same arena bytes as before the compiler could close trees.
func TestSuffixLinkInvariant(t *testing.T) {
	rng := rand.New(rand.NewPCG(39, 40))
	tree := MustNew(Config{AlphabetSize: 4, MaxDepth: 5, Significance: 1})
	for i := 0; i < 3; i++ {
		tree.Insert(randomSymbols(rng, 100+rng.IntN(200), 4))
	}
	tree.Walk(func(x Slot) bool {
		if tree.Depth(x) < 2 {
			return true
		}
		// Label is in original order, so its most recent symbol is last.
		label := tree.Label(x)
		if tree.Lookup(label[:len(label)-1]) == NoSlot {
			t.Fatalf("context %v is a node but its suffix %v is not", label, label[:len(label)-1])
		}
		return true
	})
	if virtual := requireVirtualRows(t, tree, tree.CompileSnapshot(uniformBg(4))); virtual != 0 {
		t.Fatalf("an unpruned tree compiled %d virtual nodes", virtual)
	}
}

// TestSnapshotBackgroundMismatchPanics keeps the compile contract
// aligned with Similarity's.
func TestSnapshotBackgroundMismatchPanics(t *testing.T) {
	tree := MustNew(Config{AlphabetSize: 3, MaxDepth: 3, Significance: 2})
	defer func() {
		if recover() == nil {
			t.Fatal("CompileSnapshot must panic on a mis-sized background")
		}
	}()
	tree.CompileSnapshot([]float64{0.5, 0.5})
}

// FuzzSnapshotSimilarity drives random construction and probes through
// the compiled and the tree scan, including pruning (which exercises
// the suffix-link closure) and, for a quarter of the seeds, the
// shrinkage estimator. Its refold leg then refolds the snapshot against
// a background drawn from the seed, a fifth of them with a zero entry,
// and scans again against the tree under that background.
func FuzzSnapshotSimilarity(f *testing.F) {
	f.Add(uint64(1), []byte{0, 1, 2, 0, 1}, []byte{2, 1, 0}, false)
	f.Add(uint64(7), []byte{3, 3, 3, 1}, []byte{1, 3, 1, 3}, true)
	f.Fuzz(func(t *testing.T, seed uint64, data []byte, probeBytes []byte, prune bool) {
		alpha := 2 + int(seed%7)
		cfg := Config{
			AlphabetSize:         alpha,
			MaxDepth:             1 + int(seed%5),
			Significance:         1 + int(seed%6),
			AdaptiveSignificance: seed%2 == 0,
		}
		if seed%3 == 0 {
			cfg.PMin = 0.1 / float64(alpha)
		}
		if seed%4 == 2 {
			cfg.Shrinkage = float64(1+seed/4%16) / 2
		}
		tree := MustNew(cfg)
		segment := make([]seq.Symbol, 0, len(data))
		for _, b := range data {
			segment = append(segment, seq.Symbol(int(b)%alpha))
		}
		tree.Insert(segment)
		if prune && tree.NumNodes() > 4 {
			tree.Prune(tree.NumNodes() / 2)
		}
		probe := make([]seq.Symbol, 0, len(probeBytes))
		for _, b := range probeBytes {
			probe = append(probe, seq.Symbol(int(b)%alpha))
		}
		bg := uniformBg(alpha)
		snap := tree.CompileSnapshot(bg)
		if slow, comp := tree.Similarity(probe, bg), snap.Similarity(probe); comp != slow {
			t.Fatalf("scan mismatch: tree %+v snapshot %+v", slow, comp)
		}
		bg2 := make([]float64, alpha)
		total := 0.0
		for i := range bg2 {
			bg2[i] = float64(1 + seed>>(3*i)%7)
			if seed%5 == 0 && i == alpha-1 {
				bg2[i] = 0
			}
			total += bg2[i]
		}
		for i := range bg2 {
			bg2[i] /= total
		}
		if slow, comp := tree.Similarity(probe, bg2), snap.Refold(bg2).Similarity(probe); comp != slow {
			t.Fatalf("refolded scan mismatch: tree %+v snapshot %+v", slow, comp)
		}
	})
}

// benchTree builds a deterministic scoring workload: a tree grown from
// cluster-like segments plus probe sequences to score against it, with
// the shrinkage estimator when kappa is positive. A positive capBytes
// caps the tree with expected-vector pruning, as the stream engine caps
// its cluster trees (§5.1): the cap takes the tree out of suffix-link
// closure, though not its significant nodes, so a default-estimator
// snapshot of it compiles no virtual node.
func benchTree(b *testing.B, alpha, seqLen int, kappa float64, capBytes int) (*Tree, [][]seq.Symbol, []float64) {
	b.Helper()
	rng := rand.New(rand.NewPCG(61, 62))
	tree := MustNew(Config{AlphabetSize: alpha, MaxDepth: 6, Significance: 10, PMin: 0.25 / float64(alpha), Shrinkage: kappa,
		MaxBytes: capBytes, Prune: PruneExpectedVector})
	for i := 0; i < 40; i++ {
		tree.Insert(randomSymbols(rng, seqLen, alpha))
	}
	probes := make([][]seq.Symbol, 16)
	for i := range probes {
		probes[i] = randomSymbols(rng, seqLen, alpha)
	}
	return tree, probes, uniformBg(alpha)
}

// reportVirtual reports the snapshot's virtual nodes per real compiled
// node, each of which has a score row.
func reportVirtual(b *testing.B, snap *Snapshot) {
	real := len(snap.logRatio) / snap.n
	b.ReportMetric(float64(snap.Nodes()-real)/float64(real), "virtual/node")
}

// BenchmarkSimilarity compares the pointer-walking tree scan with the
// compiled snapshot on the same workload — the acceptance benchmark for
// the snapshot optimization — on closed trees and on a capped tree.
func BenchmarkSimilarity(b *testing.B) {
	for _, size := range []struct {
		name                  string
		alpha, slen, capBytes int
	}{
		{"alpha10_len200", 10, 200, 0},
		{"alpha50_len500", 50, 500, 0},
		{"alpha50_len500_pruned", 50, 500, 256 << 10},
	} {
		tree, probes, bg := benchTree(b, size.alpha, size.slen, 0, size.capBytes)
		snap := tree.CompileSnapshot(bg)
		for _, scan := range []struct {
			name string
			run  func(p []seq.Symbol) Similarity
		}{
			{"tree", func(p []seq.Symbol) Similarity { return tree.Similarity(p, bg) }},
			{"snapshot", snap.Similarity},
		} {
			b.Run(size.name+"/"+scan.name, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					benchSink = scan.run(probes[i%len(probes)])
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*size.slen), "ns/symbol")
				reportVirtual(b, snap)
			})
		}
	}
}

// benchSink keeps the benchmarked scans from being optimized away.
var benchSink Similarity

// BenchmarkCompileSnapshot prices the compilation itself, the cost the
// engine pays once per (cluster, scoring pass), for a closed tree and
// for a capped one.
func BenchmarkCompileSnapshot(b *testing.B) {
	b.Run("closed", func(b *testing.B) { benchCompile(b, 0, 0) })
	b.Run("pruned", func(b *testing.B) { benchCompile(b, 0, 256<<10) })
}

// BenchmarkCompileSnapshotShrinkage prices the same compile under the
// shrinkage estimator, whose score rows are one per node rather than
// one per significant node.
func BenchmarkCompileSnapshotShrinkage(b *testing.B) { benchCompile(b, 8, 0) }

// BenchmarkSnapshotRefold prices what a consolidation pays instead of a
// compile for a cluster whose tree did not change: the same trees as
// BenchmarkCompileSnapshot and BenchmarkCompileSnapshotShrinkage,
// refolded against a second background.
func BenchmarkSnapshotRefold(b *testing.B) {
	for _, c := range []struct {
		name     string
		kappa    float64
		capBytes int
	}{
		{"closed", 0, 0},
		{"pruned", 0, 256 << 10},
		{"shrinkage", 8, 0},
	} {
		b.Run(c.name, func(b *testing.B) {
			tree, _, bg := benchTree(b, 20, 300, c.kappa, c.capBytes)
			snap := tree.CompileSnapshot(bg)
			bg2 := randomBg(rand.New(rand.NewPCG(63, 64)), 20, false)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				benchSnap = snap.Refold(bg2)
			}
		})
	}
}

// benchSnap keeps the benchmarked refolds from being optimized away.
var benchSnap *Snapshot

// benchCompile compiles benchTree's tree b.N times and reports its node
// count, the real nodes the compile keeps, the arena bytes the snapshot
// takes per tree node (ArenaBytes, which writes no arena) and its
// virtual nodes per real compiled node.
func benchCompile(b *testing.B, kappa float64, capBytes int) {
	tree, _, bg := benchTree(b, 20, 300, kappa, capBytes)
	b.ResetTimer()
	var snap *Snapshot
	for i := 0; i < b.N; i++ {
		snap = tree.CompileSnapshot(bg)
	}
	// Reported after the loop: ResetTimer drops user metrics.
	b.ReportMetric(float64(tree.NumNodes()), "nodes")
	b.ReportMetric(float64(len(snap.logRatio)/snap.n), "compiled")
	b.ReportMetric(float64(snap.ArenaBytes())/float64(tree.NumNodes()), "arenaB/node")
	reportVirtual(b, snap)
}
