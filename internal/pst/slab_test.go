package pst

import (
	"math/rand/v2"
	"testing"

	"cluseq/internal/seq"
)

// setCounts hand-wires node x's occurrence count and its next-symbol
// counts, for tests that pin estimation arithmetic rather than counting.
// Symbols beyond next keep their counts.
func (t *Tree) setCounts(x Slot, count int64, next ...int64) {
	t.count[x] = count
	copy(t.nextRow(x), next)
}

// TestSearchRun checks both search regimes — the linear scan of short
// runs and the binary search of long ones — against a plain scan, for
// every probe from below the first symbol to above the last.
func TestSearchRun(t *testing.T) {
	for _, n := range []int{0, 1, 2, linearRunMax, linearRunMax + 1, 20, 50} {
		syms := make([]seq.Symbol, n)
		for i := range syms {
			syms[i] = seq.Symbol(3*i + 1) // gaps on both sides of every entry
		}
		for s := seq.Symbol(0); int(s) <= 3*n+1; s++ {
			want := 0
			for want < n && syms[want] < s {
				want++
			}
			i, ok := searchRun(syms, s)
			if i != want || ok != (want < n && syms[want] == s) {
				t.Fatalf("run of %d, probe %d: got (%d, %v), want index %d", n, s, i, ok, want)
			}
		}
	}
}

// TestCappedTreeSlotsBounded pins the property that keeps a capped
// tree's memory near its cap: after every insert the slabs hold at most
// compactRatio slots per live node, and after every insert that pruned
// the child arena holds at most compactRatio entries per live edge.
// Without compaction a capped stream tree would keep the high-water mark
// of its largest insert (cap plus one sequence's contexts) for good; with
// survivor-only inserts the slots stay put, and it would keep every run
// that moved to the arena's end instead. The PruneAuto stream is long
// enough for its trees to take the survivor-only path and to trip the
// arena rule; PruneExpectedVector, which materializes every context,
// still compacts on the slot ratio.
func TestCappedTreeSlotsBounded(t *testing.T) {
	const n = 12
	rng := rand.New(rand.NewPCG(21, 22))
	for _, c := range []struct {
		strategy PruneStrategy
		inserts  int
	}{{PruneAuto, 300}, {PruneExpectedVector, 60}} {
		tr := MustNew(Config{AlphabetSize: n, MaxDepth: 8, Significance: 3, MaxBytes: 200 * (88 + 8*n + 48), Prune: c.strategy})
		compactions := 0
		for i := 0; i < c.inserts; i++ {
			before, events := &tr.parent[0], tr.PruneEvents()
			tr.Insert(randomSymbols(rng, 20+rng.IntN(200), n))
			// Compaction hands out new, exactly sized slabs.
			if &tr.parent[0] != before && cap(tr.parent) == tr.NumNodes() {
				compactions++
			}
			if slots := len(tr.depth); slots > compactRatio*tr.NumNodes() {
				t.Fatalf("%v insert %d: %d slots for %d live nodes", c.strategy, i, slots, tr.NumNodes())
			}
			if arena := len(tr.kidSym); tr.PruneEvents() > events && arena > compactRatio*(tr.NumNodes()-1) {
				t.Fatalf("%v insert %d: %d arena entries for %d live edges", c.strategy, i, arena, tr.NumNodes()-1)
			}
			if free := len(tr.free); free != len(tr.depth)-tr.NumNodes() {
				t.Fatalf("%v insert %d: %d free slots, want %d", c.strategy, i, free, len(tr.depth)-tr.NumNodes())
			}
		}
		if tr.PrunedNodes() == 0 || compactions == 0 {
			t.Fatalf("%v: %d pruned nodes, %d compactions; the cap never exercised compaction", c.strategy, tr.PrunedNodes(), compactions)
		}
		if c.strategy == PruneAuto && tr.survivorInserts == 0 {
			t.Fatalf("%v: no insert took the survivor-only path", c.strategy)
		}
	}
}

// TestFreedSlotsReused checks that a prune pass that stays under the
// compaction ratio leaves its slots on the free list and that later
// inserts take them before growing the slabs, with the reused rows
// starting from zero.
func TestFreedSlotsReused(t *testing.T) {
	rng := rand.New(rand.NewPCG(5, 6))
	train := randomSymbols(rng, 400, 4)
	tr := MustNew(Config{AlphabetSize: 4, MaxDepth: 6, Significance: 1})
	tr.Insert(train)
	slots := len(tr.depth)
	tr.Prune(tr.NumNodes() * 3 / 4)
	if len(tr.free) == 0 || len(tr.depth) != slots {
		t.Fatalf("prune to 3/4 should free slots without compacting: %d free, %d → %d slots", len(tr.free), slots, len(tr.depth))
	}
	fresh := MustNew(tr.Config())
	fresh.Insert(train)
	fresh.Prune(fresh.NumNodes() * 3 / 4)
	probe := randomSymbols(rng, 50, 4)
	free := len(tr.free)
	tr.Insert(probe)
	if len(tr.depth) > slots && len(tr.free) > 0 {
		t.Fatalf("slabs grew to %d slots with %d of %d freed slots still unused", len(tr.depth), len(tr.free), free)
	}
	if len(tr.free) >= free {
		t.Fatalf("insert of new contexts took no freed slot (%d free before, %d after)", free, len(tr.free))
	}
	fresh = fresh.Clone()
	fresh.Insert(probe)
	if got, want := treeSignature(tr), treeSignature(fresh); got != want {
		t.Fatal("a tree reusing freed slots differs from a compacted copy given the same insert")
	}
	for x, d := range tr.depth {
		if d == freeDepth {
			continue
		}
		var sum int64
		for _, c := range tr.nextRow(Slot(x)) {
			sum += c
		}
		if sum > tr.count[x] {
			t.Fatalf("slot %d: next counts %d exceed count %d (stale row after reuse?)", x, sum, tr.count[x])
		}
	}
}
