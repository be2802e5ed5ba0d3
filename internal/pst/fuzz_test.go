package pst

import (
	"bytes"
	"math"
	"testing"

	"cluseq/internal/seq"
)

// FuzzPSTInsertPredict drives a tree with arbitrary insert streams and
// checks the statistical invariants every estimator relies on:
//
//   - per-node next-symbol probabilities form a sub-distribution:
//     0 ≤ Σ_s next[s]/Count ≤ 1, and exactly 1 at the root (deeper
//     nodes can fall short of 1 only by their end-of-segment
//     occurrences, which have no successor symbol);
//   - Predict returns values in (0, 1] for arbitrary contexts once
//     PMin smoothing is on, and its per-context sum never exceeds 1;
//   - the compiled snapshot scan agrees bit for bit with the tree scan
//     on arbitrary probes, including trees the memory cap pruned;
//
// and, implicitly, that no insert stream — including ones that trip the
// memory cap and its pruning — panics.
func FuzzPSTInsertPredict(f *testing.F) {
	f.Add([]byte("abcabcabc"), []byte("ab"), uint8(4), uint8(3))
	f.Add([]byte{0, 1, 2, 0xFF, 3, 4, 5}, []byte{1, 2}, uint8(8), uint8(5))
	f.Add([]byte{}, []byte{0}, uint8(1), uint8(1))
	f.Add([]byte{0xFF, 0xFF, 7, 7, 7, 7, 7, 7, 7, 7}, []byte{7, 7, 7}, uint8(3), uint8(6))

	f.Fuzz(func(t *testing.T, stream, probe []byte, alphaByte, depthByte uint8) {
		n := int(alphaByte)%16 + 1
		cfg := Config{
			AlphabetSize: n,
			MaxDepth:     int(depthByte)%6 + 1,
			Significance: int(depthByte)%4 + 1,
			PMin:         0.1 / float64(n),
			// Small enough for fuzz streams to trip cap pruning.
			MaxBytes: 64 * (88 + 8*n + 48),
		}
		tree := MustNew(cfg)

		// 0xFF delimits segments, so one input exercises multiple
		// incremental inserts (the §4.4 update pattern).
		seg := make([]seq.Symbol, 0, len(stream))
		for _, b := range stream {
			if b == 0xFF {
				tree.Insert(seg)
				seg = seg[:0]
				continue
			}
			seg = append(seg, seq.Symbol(int(b)%n))
		}
		tree.Insert(seg)

		const eps = 1e-9
		tree.Walk(func(x Slot) bool {
			count := tree.Count(x)
			if count < 0 {
				t.Fatalf("node %v: negative count %d", tree.Label(x), count)
			}
			var sum int64
			for s := 0; s < n; s++ {
				nc := tree.NextCount(x, seq.Symbol(s))
				if nc < 0 || nc > count {
					t.Fatalf("node %v: next[%d] = %d outside [0, count=%d]", tree.Label(x), s, nc, count)
				}
				sum += nc
			}
			if sum > count {
				t.Fatalf("node %v: Σnext = %d exceeds count %d", tree.Label(x), sum, count)
			}
			if x == tree.Root() && count > 0 && sum != count {
				t.Fatalf("root: Σnext = %d, want exactly count %d (the root counts only predicted positions)", sum, count)
			}
			return true
		})

		ctx := make([]seq.Symbol, 0, len(probe))
		for _, b := range probe {
			ctx = append(ctx, seq.Symbol(int(b)%n))
		}
		var predSum float64
		for s := 0; s < n; s++ {
			p := tree.Predict(ctx, seq.Symbol(s))
			if !(p > 0 && p <= 1) || math.IsNaN(p) {
				t.Fatalf("Predict(%v, %d) = %v, want in (0, 1]", ctx, s, p)
			}
			predSum += p
		}
		if predSum > 1+eps {
			t.Fatalf("Σ_s Predict(%v, s) = %v exceeds 1", ctx, predSum)
		}

		if len(ctx) > 0 {
			bg := make([]float64, n)
			for i := range bg {
				bg[i] = 1 / float64(n)
			}
			slow := tree.Similarity(ctx, bg)
			if comp := tree.CompileSnapshot(bg).Similarity(ctx); comp != slow {
				t.Fatalf("Snapshot %+v disagrees with Similarity %+v", comp, slow)
			}
		}
	})
}

// maxFuzzLoadBytes bounds FuzzPSTLoad's inputs. Next-count rows are
// dense, so each 18-byte serialized node costs 8·n bytes in memory: with
// the alphabet at its maximum, 2 KiB of input already loads to ~60 MB,
// and larger inputs only scale that cost without reaching new code.
const maxFuzzLoadBytes = 2048

// FuzzPSTLoad feeds Load arbitrary bytes, seeded with the Save output of
// small and pruned trees. Load must never panic; a tree it accepts must
// walk to exactly its declared node count, save to bytes that Load and
// Save reproduce exactly, and compile to a snapshot that scores
// bit-identically to Tree.Similarity on a probe the input's tail
// supplies.
func FuzzPSTLoad(f *testing.F) {
	seedTree := func(cfg Config, prune int, segs ...[]seq.Symbol) []byte {
		tree := MustNew(cfg)
		for _, s := range segs {
			tree.Insert(s)
		}
		if prune > 0 {
			tree.Prune(prune)
		}
		var buf bytes.Buffer
		if err := tree.Save(&buf); err != nil {
			f.Fatal(err)
		}
		return buf.Bytes()
	}
	f.Add(seedTree(Config{AlphabetSize: 2}, 0))
	f.Add(seedTree(Config{AlphabetSize: 3, MaxDepth: 1, Significance: 1}, 0, []seq.Symbol{0, 1, 2, 0}))
	f.Add(seedTree(Config{AlphabetSize: 3, MaxDepth: 3, Significance: 2, PMin: 0.01}, 0, []seq.Symbol{0, 1, 2, 0, 1, 1, 2}))
	f.Add(seedTree(Config{AlphabetSize: 4, MaxDepth: 4, Significance: 1, Prune: PruneExpectedVector}, 9,
		[]seq.Symbol{0, 1, 2, 3, 0, 1, 3, 3, 2}, []seq.Symbol{3, 2, 1}))
	f.Add(seedTree(Config{AlphabetSize: 3, MaxDepth: 3, Significance: 1, Shrinkage: 4}, 0, []seq.Symbol{2, 1, 0, 2, 1}))

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > maxFuzzLoadBytes {
			return
		}
		tree, err := Load(bytes.NewReader(data))
		if err != nil {
			return
		}
		walked := 0
		tree.Walk(func(Slot) bool { walked++; return true })
		if walked != tree.NumNodes() {
			t.Fatalf("Walk visited %d nodes, NumNodes is %d", walked, tree.NumNodes())
		}
		var first bytes.Buffer
		if err := tree.Save(&first); err != nil {
			t.Fatalf("Save of a loaded tree: %v", err)
		}
		again, err := Load(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("Load of a saved tree: %v", err)
		}
		var second bytes.Buffer
		if err := again.Save(&second); err != nil {
			t.Fatalf("Save of a reloaded tree: %v", err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatal("Save is not a fixpoint under Load/Save")
		}

		n := tree.Config().AlphabetSize
		bg := make([]float64, n)
		for i := range bg {
			bg[i] = 1 / float64(n)
		}
		var probe []seq.Symbol
		for _, b := range data[max(0, len(data)-64):] {
			probe = append(probe, seq.Symbol(int(b)%n))
		}
		want := tree.Similarity(probe, bg)
		if got := tree.CompileSnapshot(bg).Similarity(probe); got != want {
			t.Fatalf("Snapshot %+v disagrees with Similarity %+v", got, want)
		}
	})
}
