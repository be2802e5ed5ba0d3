package pst

import (
	"bytes"
	"math"
	"math/rand/v2"
	"sync"
	"testing"
)

// randomBg draws a background over alpha symbols. With zeros set, about
// a third of the symbols get probability 0 (at least one keeps mass),
// so ln p(sym) is −Inf there: a possible symbol folds to +Inf and an
// impossible one must stay −Inf rather than become NaN.
func randomBg(rng *rand.Rand, alpha int, zeros bool) []float64 {
	bg := make([]float64, alpha)
	total := 0.0
	for i := range bg {
		if zeros && i > 0 && rng.IntN(3) == 0 {
			continue
		}
		bg[i] = 0.1 + rng.Float64()
		total += bg[i]
	}
	for i := range bg {
		bg[i] /= total
	}
	return bg
}

// rowMixes are the three transition-row mixes, set through the
// denseOccupancy and denseAllLimit knobs.
var rowMixes = []struct {
	name                string
	occupancy, allLimit int
}{
	{"hybrid", 2, 1 << 8},       // tiny escape + low bar: real mixed rows on test-sized trees
	{"dense", 1 << 30, 1 << 20}, // every extension-bearing row dense
	{"csr", 0, 0},               // every row but the root CSR
}

// TestSnapshotRefoldMatchesCompile pins Refold's contract: a current
// snapshot refolded against another background writes, byte for byte,
// the arena CompileSnapshot writes for that background, and scans as
// the tree does under it. The sweep covers the default estimator, PMin
// 0 and shrinkage trees, capped trees whose automaton needs virtual
// nodes, every transition-row mix, backgrounds with zero entries, and
// chains of refolds back to the first background. A refold shares its
// source's transition tables and leaves the source as it was, and an
// impossible symbol's −Inf stays −Inf where p(sym) is 0, rather than
// folding to NaN (which the scan's dynamic program would not show).
func TestSnapshotRefoldMatchesCompile(t *testing.T) {
	for _, mode := range rowMixes {
		t.Run(mode.name, func(t *testing.T) {
			oldOcc, oldAll := denseOccupancy, denseAllLimit
			denseOccupancy, denseAllLimit = mode.occupancy, mode.allLimit
			defer func() { denseOccupancy, denseAllLimit = oldOcc, oldAll }()
			rng := rand.New(rand.NewPCG(51, 52))
			virtual, impossible := 0, 0
			for trial := 0; trial < 90; trial++ {
				alpha := 2 + rng.IntN(7)
				cfg := Config{
					AlphabetSize:         alpha,
					MaxDepth:             1 + rng.IntN(6),
					Significance:         1 + rng.IntN(8),
					AdaptiveSignificance: rng.IntN(2) == 0,
				}
				switch trial % 3 {
				case 0:
					cfg.PMin = 0.5 / float64(alpha) * rng.Float64()
				case 1: // PMin 0: unseen symbols are impossible
				case 2:
					cfg.PMin = 0.5 / float64(alpha) * rng.Float64()
					cfg.Shrinkage = 0.5 + 16*rng.Float64()
				}
				if trial >= 45 {
					cfg.MaxBytes = (8 + rng.IntN(56)) * (88 + 8*alpha + 48) // 8–63 nodes
					cfg.Prune = PruneStrategy(rng.IntN(4))
				}
				tree := MustNew(cfg)
				for k := 0; k < 1+rng.IntN(4); k++ {
					tree.Insert(randomSymbols(rng, 20+rng.IntN(150), alpha))
				}
				bgs := [][]float64{randomBg(rng, alpha, false), randomBg(rng, alpha, true), randomBg(rng, alpha, trial%2 == 0)}
				snap := tree.CompileSnapshot(bgs[0])
				virtual += requireVirtualRows(t, tree, snap)
				source := append([]byte(nil), snap.Arena()...)
				cur := snap
				for _, bg := range append(bgs[1:], bgs[0]) {
					r := cur.Refold(bg)
					if !r.Valid(tree) {
						t.Fatalf("trial %d: a refold of a current snapshot is not valid for its tree", trial)
					}
					if got, want := r.Arena(), tree.CompileSnapshot(bg).Arena(); !bytes.Equal(got, want) {
						t.Fatalf("trial %d (%+v): refolded arena differs from a compile against the same background", trial, cfg)
					}
					if &r.nodeTrans[0] != &snap.nodeTrans[0] || &r.row[0] != &snap.row[0] {
						t.Fatalf("trial %d: the refold copied the transition tables instead of sharing them", trial)
					}
					for i, v := range r.logRatio {
						lnP, p := snap.lnP[i], bg[i%alpha]
						if math.IsNaN(v) || math.IsInf(lnP, -1) != math.IsInf(v, -1) {
							t.Fatalf("trial %d: ln P̂ %v folded to %v against p = %v", trial, lnP, v, p)
						}
						if math.IsInf(lnP, -1) && p == 0 {
							impossible++
						}
					}
					for probe := 0; probe < 4; probe++ {
						requireIdentical(t, tree, r, randomSymbols(rng, 1+rng.IntN(90), alpha), bg)
					}
					cur = r
				}
				if !bytes.Equal(snap.Arena(), source) {
					t.Fatalf("trial %d: refolding changed the source snapshot's arena", trial)
				}
			}
			if virtual == 0 || impossible == 0 {
				t.Fatalf("%d virtual nodes and %d impossible symbols of zero background; the sweep misses one", virtual, impossible)
			}
		})
	}
}

// TestSnapshotRefoldStaleCompiles: a snapshot whose tree mutated since
// its compile has no rows left to reuse, so Refold compiles the tree as
// it is now.
func TestSnapshotRefoldStaleCompiles(t *testing.T) {
	rng := rand.New(rand.NewPCG(53, 54))
	tree := MustNew(Config{AlphabetSize: 4, MaxDepth: 4, Significance: 2, PMin: 0.02})
	tree.Insert(randomSymbols(rng, 200, 4))
	snap := tree.CompileSnapshot(uniformBg(4))
	tree.Insert(randomSymbols(rng, 60, 4))
	bg := randomBg(rng, 4, false)
	r := snap.Refold(bg)
	if !r.Valid(tree) {
		t.Fatal("Refold of a stale snapshot returned one that is not valid for the mutated tree")
	}
	if !bytes.Equal(r.Arena(), tree.CompileSnapshot(bg).Arena()) {
		t.Fatal("Refold of a stale snapshot differs from a compile of the mutated tree")
	}
	if snap.Valid(tree) {
		t.Fatal("Refold revived its stale source")
	}
}

// TestSnapshotRefoldWithoutRowsPanics: loaded and detached snapshots
// keep no ln P̂ rows and no tree to compile, so Refold panics rather
// than return tables it cannot make exact. A mis-sized background
// panics as it does for CompileSnapshot.
func TestSnapshotRefoldWithoutRowsPanics(t *testing.T) {
	tree, _, bg := buildArenaTree(5, 2, 100, false)
	snap := tree.CompileSnapshot(bg)
	for name, refold := range map[string]func(){
		"loaded":     func() { reattach(t, snap).Refold(bg) },
		"detached":   func() { snap.Detached().Refold(bg) },
		"background": func() { snap.Refold(uniformBg(4)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: Refold did not panic", name)
				}
			}()
			refold()
		}()
	}
	if d := snap.Detached(); d.lnP != nil {
		t.Fatal("Detached kept the ln P̂ rows")
	}
}

// TestSnapshotSharedTablesRace runs, at once, the readers a compiled
// snapshot's tables serve: goroutines writing its arena (the bundle
// persister's path) beside goroutines scanning it, refolding it and
// scanning the refolds, and scanning a Detached copy. Every one shares
// the same transition tables, so under the race detector any write to
// them fails the test.
func TestSnapshotSharedTablesRace(t *testing.T) {
	tree, probes, bg := buildArenaTree(6, 3, 120, true)
	snap := tree.CompileSnapshot(bg)
	bg2 := randomBg(rand.New(rand.NewPCG(55, 56)), 6, true)
	want := append([]byte(nil), snap.Arena()...)
	wantRefold := tree.CompileSnapshot(bg2).Arena()
	scans := make([]Similarity, len(probes))
	for i, p := range probes {
		scans[i] = snap.Similarity(p)
	}
	scan := func(s *Snapshot, bg []float64) {
		for i, p := range probes {
			got := s.Similarity(p)
			if bg == nil && got != scans[i] {
				t.Errorf("concurrent scan of probe %d read %+v, want %+v", i, got, scans[i])
			}
			if bg != nil && got != tree.Similarity(p, bg) {
				t.Errorf("concurrent scan of a refold diverged from the tree on probe %d", i)
			}
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for rep := 0; rep < 10; rep++ {
				switch g % 4 {
				case 0:
					if !bytes.Equal(snap.Arena(), want) {
						t.Error("concurrent Arena wrote other bytes")
					}
				case 1:
					scan(snap, nil)
				case 2:
					r := snap.Refold(bg2)
					scan(r, bg2)
					if !bytes.Equal(r.Arena(), wantRefold) {
						t.Error("concurrent refold wrote another arena")
					}
				case 3:
					d := snap.Detached()
					scan(d, nil)
					if !bytes.Equal(d.Arena(), want) {
						t.Error("a Detached copy wrote another arena")
					}
				}
			}
		}(g)
	}
	wg.Wait()
}
