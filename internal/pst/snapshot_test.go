package pst

import (
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

func uniformBg(n int) []float64 {
	bg := make([]float64, n)
	for i := range bg {
		bg[i] = 1 / float64(n)
	}
	return bg
}

// TestSnapshotMatchesTreeRandom sweeps random trees across the
// estimator's configuration space: PMin on/off, adaptive significance,
// and all three transition-row mixes (per-node hybrid, all-dense,
// all-CSR — the latter two forced through the occupancy knob so the
// climb/override code paths are exercised regardless of tree shape).
func TestSnapshotMatchesTreeRandom(t *testing.T) {
	for _, mode := range []struct {
		name      string
		occupancy int
		allLimit  int
	}{
		{"hybrid", 2, 1 << 8},             // tiny escape + low bar: real mixed rows on test-sized trees
		{"dense", 1 << 30, denseAllLimit}, // every extension-bearing row dense
		{"csr", 0, 0},                     // every row but the root CSR
	} {
		t.Run(mode.name, func(t *testing.T) {
			oldOcc, oldAll := denseOccupancy, denseAllLimit
			denseOccupancy, denseAllLimit = mode.occupancy, mode.allLimit
			defer func() { denseOccupancy, denseAllLimit = oldOcc, oldAll }()
			rng := rand.New(rand.NewPCG(41, 42))
			for trial := 0; trial < 80; trial++ {
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
				tree := MustNew(cfg)
				for k := 0; k < 1+rng.IntN(4); k++ {
					tree.Insert(randomSymbols(rng, 20+rng.IntN(150), alpha))
				}
				bg := make([]float64, alpha)
				total := 0.0
				for i := range bg {
					bg[i] = 0.1 + rng.Float64()
					total += bg[i]
				}
				for i := range bg {
					bg[i] /= total
				}
				snap := tree.CompileSnapshot(bg)
				if !snap.Valid(tree) {
					t.Fatal("fresh snapshot must be valid")
				}
				for probe := 0; probe < 6; probe++ {
					requireIdentical(t, tree, snap, randomSymbols(rng, 1+rng.IntN(90), alpha), bg)
				}
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

// TestSnapshotShrinkageDelegates covers the shrinkage estimator, which
// cannot be compiled per node: the snapshot must delegate and still be
// exact.
func TestSnapshotShrinkageDelegates(t *testing.T) {
	rng := rand.New(rand.NewPCG(47, 48))
	tree := MustNew(Config{AlphabetSize: 5, MaxDepth: 4, Significance: 3, Shrinkage: 8, PMin: 0.01})
	tree.Insert(randomSymbols(rng, 300, 5))
	bg := uniformBg(5)
	snap := tree.CompileSnapshot(bg)
	if !snap.delegate {
		t.Fatal("shrinkage-mode snapshot must delegate to the tree scan")
	}
	for probe := 0; probe < 20; probe++ {
		requireIdentical(t, tree, snap, randomSymbols(rng, 1+rng.IntN(80), 5), bg)
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
// unpruned tree compiles the O(1)-per-symbol automaton, never the
// bounded-descent fallback.
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
	if tree.CompileSnapshot(uniformBg(4)).descend {
		t.Fatal("an unpruned tree must compile the transition automaton, not the descent fallback")
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
// the bounded-descent compile path).
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
	})
}

// benchTree builds a deterministic scoring workload: a tree grown from
// cluster-like segments plus probe sequences to score against it.
func benchTree(b *testing.B, alpha, seqLen int) (*Tree, [][]seq.Symbol, []float64) {
	b.Helper()
	rng := rand.New(rand.NewPCG(61, 62))
	tree := MustNew(Config{AlphabetSize: alpha, MaxDepth: 6, Significance: 10, PMin: 0.25 / float64(alpha)})
	for i := 0; i < 40; i++ {
		tree.Insert(randomSymbols(rng, seqLen, alpha))
	}
	probes := make([][]seq.Symbol, 16)
	for i := range probes {
		probes[i] = randomSymbols(rng, seqLen, alpha)
	}
	return tree, probes, uniformBg(alpha)
}

// BenchmarkSimilarity compares the pointer-walking tree scan with the
// compiled snapshot on the same workload — the acceptance benchmark for
// the snapshot optimization.
func BenchmarkSimilarity(b *testing.B) {
	for _, size := range []struct {
		name        string
		alpha, slen int
	}{
		{"alpha10_len200", 10, 200},
		{"alpha50_len500", 50, 500},
	} {
		tree, probes, bg := benchTree(b, size.alpha, size.slen)
		snap := tree.CompileSnapshot(bg)
		b.Run(size.name+"/tree", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				tree.Similarity(probes[i%len(probes)], bg)
			}
		})
		b.Run(size.name+"/snapshot", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				snap.Similarity(probes[i%len(probes)])
			}
		})
	}
}

// BenchmarkCompileSnapshot prices the compilation itself, the cost the
// engine pays once per (cluster, scoring pass).
func BenchmarkCompileSnapshot(b *testing.B) {
	tree, _, bg := benchTree(b, 20, 300)
	b.ReportMetric(float64(tree.NumNodes()), "nodes")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tree.CompileSnapshot(bg)
	}
}
