package pst

import (
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
		tree.Walk(func(node *Node) bool {
			if node.Count < 0 {
				t.Fatalf("node %v: negative count %d", node.Label(), node.Count)
			}
			var sum int64
			for s := 0; s < n; s++ {
				nc := node.NextCount(seq.Symbol(s))
				if nc < 0 || nc > node.Count {
					t.Fatalf("node %v: next[%d] = %d outside [0, count=%d]", node.Label(), s, nc, node.Count)
				}
				sum += nc
			}
			if sum > node.Count {
				t.Fatalf("node %v: Σnext = %d exceeds count %d", node.Label(), sum, node.Count)
			}
			if node == tree.Root() && node.Count > 0 && sum != node.Count {
				t.Fatalf("root: Σnext = %d, want exactly count %d (the root counts only predicted positions)", sum, node.Count)
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
