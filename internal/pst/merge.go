package pst

import (
	"fmt"

	"cluseq/internal/seq"
)

// Merge adds every count of other into t: node counts, next-symbol
// counters, and total symbol bookkeeping. The result is statistically
// identical to a tree built from the union of both trees' insertions
// (modulo each tree's own MaxDepth truncation — both trees must share
// alphabet size and MaxDepth). Used by the merge-consolidation extension,
// which unions heavily overlapping clusters instead of dismissing one.
func (t *Tree) Merge(other *Tree) error {
	if other == nil {
		return nil
	}
	if other.cfg.AlphabetSize != t.cfg.AlphabetSize {
		return fmt.Errorf("pst: merge alphabet mismatch: %d vs %d", other.cfg.AlphabetSize, t.cfg.AlphabetSize)
	}
	if other.cfg.MaxDepth != t.cfg.MaxDepth {
		return fmt.Errorf("pst: merge depth mismatch: %d vs %d", other.cfg.MaxDepth, t.cfg.MaxDepth)
	}
	// Pre-order over other's nodes, each paired with its parent's
	// counterpart in t (the root pairs with the root).
	type pending struct{ dstParent, src Slot }
	stack := []pending{{dstParent: NoSlot, src: other.Root()}}
	for len(stack) > 0 {
		e := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		dst := t.Root()
		if e.dstParent != NoSlot {
			dst = t.ensureChild(e.dstParent, other.edge[e.src])
		}
		t.count[dst] += other.count[e.src]
		row := t.nextRow(dst)
		for s, c := range other.nextRow(e.src) {
			row[s] += c
		}
		_, slots := other.kids(e.src)
		for j := len(slots) - 1; j >= 0; j-- {
			stack = append(stack, pending{dstParent: dst, src: Slot(slots[j])})
		}
	}
	t.insertions += other.insertions
	t.pruned += other.pruned
	t.version++
	if t.maxNodes > 0 && t.numNodes > t.maxNodes {
		t.pruneTo(t.maxNodes * 9 / 10)
	}
	return nil
}

// InsertCounts adds one explicit context observation: the context occurred
// once, followed by next (pass alphabet-size as next for an end-of-data
// occurrence with no successor). Exposed for tests and for callers
// maintaining trees from pre-aggregated statistics.
func (t *Tree) InsertCounts(context []seq.Symbol, next seq.Symbol, times int64) error {
	if times < 0 {
		return fmt.Errorf("pst: negative count %d", times)
	}
	if len(context) > t.cfg.MaxDepth {
		context = context[len(context)-t.cfg.MaxDepth:]
	}
	hasNext := int(next) < t.cfg.AlphabetSize
	x := t.Root()
	if hasNext {
		// The root counts predicted positions only (its count is the total
		// symbol count, §3); end-of-data occurrences touch deeper contexts
		// but not the root, matching Insert's tail pass.
		t.bump(x, next, times, true)
	}
	for d := 1; d <= len(context); d++ {
		x = t.ensureChild(x, context[len(context)-d])
		t.bump(x, next, times, hasNext)
	}
	if hasNext {
		t.insertions += times
	}
	t.version++
	if t.maxNodes > 0 && t.numNodes > t.maxNodes {
		t.pruneTo(t.maxNodes * 9 / 10)
	}
	return nil
}

func (t *Tree) bump(x Slot, next seq.Symbol, times int64, hasNext bool) {
	t.count[x] += times
	if hasNext {
		t.nextRow(x)[next] += times
	}
}
