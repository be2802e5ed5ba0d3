package pst

import (
	"fmt"
	"math/rand/v2"
	"testing"

	"cluseq/internal/seq"
)

// TestSurvivorInsertMatchesHeapPass replays random streams on a capped
// tree and on a twin forced through the reference insert, under every
// strategy, with fixed and adaptive significance and caps from tight to
// loose: after every insert both must save to the same bytes and agree
// on every counter. The streams mix planted repeats, whose contexts grow
// significant, with noise, so PruneAuto passes take both the
// survivor-only path and the heap-pass fallback.
func TestSurvivorInsertMatchesHeapPass(t *testing.T) {
	var autoSurvivor, autoFallback int64
	for seed := uint64(1); seed <= 8; seed++ {
		for _, strategy := range []PruneStrategy{PruneAuto, PruneMinCount, PruneLongestLabel, PruneExpectedVector} {
			rng := rand.New(rand.NewPCG(seed, uint64(strategy)))
			n := 3 + rng.IntN(20)
			cfg := Config{
				AlphabetSize:         n,
				MaxDepth:             3 + rng.IntN(8),
				Significance:         1 + rng.IntN(30),
				MaxBytes:             (8 + rng.IntN(200)) * (88 + 8*n + 48),
				Prune:                strategy,
				AdaptiveSignificance: seed%2 == 0,
			}
			t.Run(fmt.Sprintf("seed%d-%v", seed, strategy), func(t *testing.T) {
				tree, twin := MustNew(cfg), MustNew(cfg)
				twin.heapOnly = true
				motif := randomSymbols(rng, 30, n)
				for i := 0; i < 80; i++ {
					seg := randomSymbols(rng, rng.IntN(250), n)
					for j := 0; j+len(motif) < len(seg); j += 3 * len(motif) {
						copy(seg[j:], motif)
					}
					tree.Insert(seg)
					twin.Insert(seg)
					assertSameTree(t, tree, twin)
				}
				if tree.PruneEvents() == 0 {
					t.Fatal("the cap never fired")
				}
				switch strategy {
				case PruneAuto:
					autoSurvivor += tree.survivorInserts
					autoFallback += tree.PruneEvents() - tree.survivorInserts
				case PruneMinCount, PruneLongestLabel:
					if tree.survivorInserts != tree.PruneEvents() {
						t.Fatalf("%d of %d capped prunes took the survivor-only path", tree.survivorInserts, tree.PruneEvents())
					}
				}
			})
		}
	}
	if autoSurvivor == 0 || autoFallback == 0 {
		t.Fatalf("PruneAuto took the survivor-only path %d times and fell back %d times; both must be exercised", autoSurvivor, autoFallback)
	}
}

// TestSurvivorInsertAllocs checks that a capped tree in its steady state
// inserts on the survivor-only path without allocating: the pooled
// scratch, the free list and the arena are all reused.
func TestSurvivorInsertAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool bypasses its cache under -race, inflating alloc counts")
	}
	rng := rand.New(rand.NewPCG(8, 9))
	const n = 20
	tree := MustNew(Config{AlphabetSize: n, MaxDepth: 8, Significance: 1 << 20, MaxBytes: 300 * (88 + 8*n + 48)})
	segs := make([][]seq.Symbol, 16)
	for i := range segs {
		segs[i] = randomSymbols(rng, 150, n)
	}
	// Warm up until the scratch, the free list and the arena have reached
	// their high-water marks.
	for i := 0; i < 200; i++ {
		tree.Insert(segs[i%len(segs)])
	}
	i := 0
	allocs := testing.AllocsPerRun(50, func() {
		before := len(tree.depth)
		tree.Insert(segs[i%len(segs)])
		i++
		if len(tree.depth) != before {
			t.Fatal("the insert compacted or grew the slabs; the measurement would not be the steady state")
		}
	})
	if tree.survivorInserts == 0 {
		t.Fatal("no insert took the survivor-only path")
	}
	if allocs != 0 {
		t.Fatalf("%.1f allocations per survivor-only insert, want 0", allocs)
	}
}
