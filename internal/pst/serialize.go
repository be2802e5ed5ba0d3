package pst

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"cluseq/internal/seq"
)

// Binary serialization of probabilistic suffix trees, so that cluster
// models can be stored and later used for classification without
// re-clustering. The format is a little-endian stream:
//
//	magic "PSTv1\n", config block, then the node tree in pre-order, each
//	node as (edge symbol, count, non-zero next entries, child count).
//
// Only non-zero next-counts are written; trees over large alphabets are
// sparse at depth.

var magic = []byte("PSTv1\n")

// Clone returns a deep copy of the tree: identical configuration,
// structure and counts in freshly allocated, compacted slabs, sharing no
// mutable state with the original. The copy matches what a Save/Load
// round trip would rebuild on every observable — Similarity over the
// clone is bit-identical to the original at the moment of cloning — and
// like a loaded tree it starts at Version 1 with no prune events and its
// own ln(background) memo, so snapshots compiled from the original do not
// validate against it. The streaming engine clones each cluster tree at
// snapshot-publication time so the published classifier is immutable
// while the live tree keeps absorbing the stream.
func (t *Tree) Clone() *Tree {
	return &Tree{
		cfg:        t.cfg,
		slabs:      t.compacted(),
		numNodes:   t.numNodes,
		version:    1,
		nodeBytes:  t.nodeBytes,
		maxNodes:   t.maxNodes,
		insertions: t.insertions,
		pruned:     t.pruned,
	}
}

// Save writes the tree to w in the binary format.
func (t *Tree) Save(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.Write(magic); err != nil {
		return err
	}
	cfg := t.cfg
	hdr := []any{
		int64(cfg.AlphabetSize), int64(cfg.MaxDepth), int64(cfg.Significance),
		int64(cfg.MaxBytes), int64(cfg.Prune), cfg.PMin,
		boolByte(cfg.AdaptiveSignificance), cfg.Shrinkage,
		t.insertions, t.pruned, int64(t.numNodes),
	}
	for _, v := range hdr {
		if err := binary.Write(bw, binary.LittleEndian, v); err != nil {
			return err
		}
	}
	// Nodes in Walk's pre-order, each as (edge symbol, count, non-zero
	// entry count, child count, then the non-zero (symbol, count) pairs);
	// sorted child runs make the output byte-reproducible.
	var buf []byte
	le := binary.LittleEndian
	var err error
	t.Walk(func(x Slot) bool {
		row := t.nextRow(x)
		nonZero := uint32(0)
		for _, c := range row {
			if c != 0 {
				nonZero++
			}
		}
		buf = le.AppendUint16(buf[:0], uint16(t.edge[x]))
		buf = le.AppendUint64(buf, uint64(t.count[x]))
		buf = le.AppendUint32(buf, nonZero)
		buf = le.AppendUint32(buf, uint32(t.runs[x].len))
		for s, c := range row {
			if c != 0 {
				buf = le.AppendUint16(buf, uint16(s))
				buf = le.AppendUint64(buf, uint64(c))
			}
		}
		_, err = bw.Write(buf)
		return err == nil
	})
	if err != nil {
		return err
	}
	return bw.Flush()
}

func boolByte(b bool) byte {
	if b {
		return 1
	}
	return 0
}

// Load reads a tree previously written by Save. Besides the stream's
// own consistency it checks what snapshots rely on: counts monotone
// along root paths, and a suffix-link closure (see Snapshot) within
// closureLimit, so that compiling any loaded tree costs memory linear
// in its size.
func Load(r io.Reader) (*Tree, error) {
	br := bufio.NewReader(r)
	got := make([]byte, len(magic))
	if _, err := io.ReadFull(br, got); err != nil {
		return nil, fmt.Errorf("pst: reading magic: %w", err)
	}
	if string(got) != string(magic) {
		return nil, fmt.Errorf("pst: bad magic %q", got)
	}
	var (
		alpha, maxDepth, sig, maxBytes, prune int64
		pmin, shrink                          float64
		adaptive                              byte
		insertions, pruned, numNodes          int64
	)
	hdrFields := []struct {
		name string
		v    any
	}{
		{"alphabet size", &alpha}, {"max depth", &maxDepth},
		{"significance", &sig}, {"max bytes", &maxBytes},
		{"prune strategy", &prune}, {"p_min", &pmin},
		{"adaptive flag", &adaptive}, {"shrinkage", &shrink},
		{"insertions", &insertions}, {"pruned count", &pruned},
		{"node count", &numNodes},
	}
	for _, f := range hdrFields {
		if err := binary.Read(br, binary.LittleEndian, f.v); err != nil {
			return nil, fmt.Errorf("pst: reading header field %s: %w", f.name, err)
		}
	}
	// Reject implausible headers before any size-proportional allocation:
	// a flipped byte in the alphabet or node count must fail here, not in
	// a multi-gigabyte make().
	if alpha <= 0 || alpha > seq.MaxAlphabetSize {
		return nil, fmt.Errorf("pst: corrupt header: alphabet size %d outside [1, %d]", alpha, seq.MaxAlphabetSize)
	}
	if numNodes < 1 || numNodes > maxLoadNodes {
		return nil, fmt.Errorf("pst: corrupt header: node count %d outside [1, %d]", numNodes, int64(maxLoadNodes))
	}
	if maxDepth < 0 || maxDepth > math.MaxInt32 {
		return nil, fmt.Errorf("pst: corrupt header: max depth %d", maxDepth)
	}
	if insertions < 0 || pruned < 0 {
		return nil, fmt.Errorf("pst: corrupt header: negative counters (insertions %d, pruned %d)", insertions, pruned)
	}
	t, err := New(Config{
		AlphabetSize:         int(alpha),
		MaxDepth:             int(maxDepth),
		Significance:         int(sig),
		MaxBytes:             int(maxBytes),
		Prune:                PruneStrategy(prune),
		PMin:                 pmin,
		AdaptiveSignificance: adaptive != 0,
		Shrinkage:            shrink,
	})
	if err != nil {
		return nil, err
	}
	t.insertions = insertions
	t.pruned = pruned
	if err := t.loadNodes(br, numNodes); err != nil {
		return nil, err
	}
	f, _ := t.layout(0)
	if _, err := f.closure(closureLimit(t.numNodes, t.cfg.MaxDepth)); err != nil {
		return nil, err
	}
	return t, nil
}

// nodeHeaderBytes is the fixed prefix of every serialized node: edge
// symbol (uint16), count (int64), non-zero entry count (uint32) and child
// count (uint32).
const nodeHeaderBytes = 2 + 8 + 4 + 4

// nodeFieldAt names the node-header field that a read stopping after got
// bytes was in.
func nodeFieldAt(got int) string {
	switch {
	case got < 2:
		return "edge symbol"
	case got < 10:
		return "count"
	case got < 14:
		return "next-entry count"
	default:
		return "child count"
	}
}

// maxLoadNodes bounds the node count a header may declare; anything
// larger is rejected before allocation. (2^31 nodes would already be a
// >100 GB tree — far beyond any legitimate bundle.)
const maxLoadNodes = int64(1) << 31

// loadNodes reads the pre-order node stream of a tree whose header
// declared total nodes into t, which holds only its root. Children may
// arrive in any symbol order; each lands at its sorted place in its
// parent's run.
func (t *Tree) loadNodes(r io.Reader, total int64) error {
	// Each open entry is a node still owed children by the stream.
	type open struct {
		x        Slot
		idx      int64 // pre-order index, for errors
		children uint32
	}
	le := binary.LittleEndian
	var stack []open
	for idx := int64(0); idx == 0 || len(stack) > 0; idx++ {
		if idx >= total {
			return fmt.Errorf("pst: more nodes in stream than the %d the header declared", total)
		}
		var hdr [nodeHeaderBytes]byte
		if got, err := io.ReadFull(r, hdr[:]); err != nil {
			return fmt.Errorf("pst: node %d: reading %s: %w", idx, nodeFieldAt(got), err)
		}
		sym := le.Uint16(hdr[0:])
		count := int64(le.Uint64(hdr[2:]))
		nonZero := le.Uint32(hdr[10:])
		children := le.Uint32(hdr[14:])
		x := t.Root()
		if idx > 0 {
			top := &stack[len(stack)-1]
			parent := top.x
			if top.children--; top.children == 0 {
				stack = stack[:len(stack)-1]
			}
			if int(sym) >= t.cfg.AlphabetSize {
				return fmt.Errorf("pst: node %d: edge symbol %d outside alphabet of %d", idx, sym, t.cfg.AlphabetSize)
			}
			if int(t.depth[parent]) >= t.cfg.MaxDepth {
				return fmt.Errorf("pst: node %d: depth %d exceeds MaxDepth %d", idx, t.depth[parent]+1, t.cfg.MaxDepth)
			}
			syms, _ := t.kids(parent)
			i, dup := searchRun(syms, seq.Symbol(sym))
			if dup {
				return fmt.Errorf("pst: node %d: duplicate child symbol %d", top.idx, sym)
			}
			x = t.newSlot(parent, seq.Symbol(sym))
			t.insertKid(parent, i, seq.Symbol(sym), x)
		} else {
			t.edge[x] = seq.Symbol(sym)
		}
		if count < 0 || int64(nonZero) > int64(t.cfg.AlphabetSize) {
			return fmt.Errorf("pst: node %d: corrupt (count %d, %d next entries, alphabet %d)", idx, count, nonZero, t.cfg.AlphabetSize)
		}
		// A context occurs wherever a longer one does, so below depth 1 a
		// count never exceeds its parent's (the root, always significant,
		// is exempt: end-of-data observations skip it). Snapshots rely on
		// the resulting monotone significance to score like the tree.
		if p := Slot(t.parent[x]); t.depth[x] > 1 && count > t.count[p] {
			return fmt.Errorf("pst: node %d: count %d exceeds its parent's %d", idx, count, t.count[p])
		}
		// Every child consumes one of the declared remaining nodes and
		// takes a distinct symbol, so a child count beyond either bound
		// is corrupt; checking here keeps the run reserved below small.
		if remaining := total - idx - 1; int64(children) > remaining || int(children) > t.cfg.AlphabetSize {
			return fmt.Errorf("pst: node %d: declares %d children but only %d nodes remain (alphabet %d)", idx, children, remaining, t.cfg.AlphabetSize)
		}
		t.count[x] = count
		row := t.nextRow(x)
		for i := uint32(0); i < nonZero; i++ {
			var ent [2 + 8]byte
			if got, err := io.ReadFull(r, ent[:]); err != nil {
				field := "symbol"
				if got >= 2 {
					field = "count"
				}
				return fmt.Errorf("pst: node %d: reading next entry %d %s: %w", idx, i, field, err)
			}
			s, c := le.Uint16(ent[0:]), int64(le.Uint64(ent[2:]))
			if int(s) >= t.cfg.AlphabetSize || c < 0 {
				return fmt.Errorf("pst: node %d: corrupt next entry (symbol %d, count %d)", idx, s, c)
			}
			row[s] = c
		}
		if children > 0 {
			t.growRun(x, int32(children))
			stack = append(stack, open{x: x, idx: idx, children: children})
		}
	}
	if t.numNodes != int(total) {
		return fmt.Errorf("pst: node count mismatch: %d unread", total-int64(t.numNodes))
	}
	return nil
}
