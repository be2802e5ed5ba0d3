package pst

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"sort"

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
// structure, and counts, sharing no mutable state with the original.
// Implemented as a Save/Load round trip, so the copy is exactly the tree
// a bundle reader would reconstruct — Similarity over the clone is
// bit-identical to the original at the moment of cloning. The clone's
// Version restarts (it is a fresh tree), so snapshots compiled from the
// original do not validate against it. The streaming engine clones each
// cluster tree at snapshot-publication time so the published classifier
// is immutable while the live tree keeps absorbing the stream.
func (t *Tree) Clone() *Tree {
	var buf bytes.Buffer
	if err := t.Save(&buf); err != nil {
		// Save into a bytes.Buffer cannot fail with a well-formed tree.
		panic(fmt.Sprintf("pst: cloning tree: %v", err))
	}
	nt, err := Load(&buf)
	if err != nil {
		panic(fmt.Sprintf("pst: reloading cloned tree: %v", err))
	}
	return nt
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
	if err := t.saveNode(bw, t.root); err != nil {
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

func (t *Tree) saveNode(w io.Writer, n *Node) error {
	nonZero := uint32(0)
	for _, c := range n.next {
		if c != 0 {
			nonZero++
		}
	}
	for _, v := range []any{uint16(n.symbol), n.Count, nonZero, uint32(len(n.children))} {
		if err := binary.Write(w, binary.LittleEndian, v); err != nil {
			return err
		}
	}
	for s, c := range n.next {
		if c == 0 {
			continue
		}
		if err := binary.Write(w, binary.LittleEndian, uint16(s)); err != nil {
			return err
		}
		if err := binary.Write(w, binary.LittleEndian, c); err != nil {
			return err
		}
	}
	// Children sorted by symbol for byte-reproducible output.
	syms := make([]seq.Symbol, 0, len(n.children))
	for s := range n.children {
		syms = append(syms, s)
	}
	sort.Slice(syms, func(i, j int) bool { return syms[i] < syms[j] })
	for _, s := range syms {
		if err := t.saveNode(w, n.children[s]); err != nil {
			return err
		}
	}
	return nil
}

// Load reads a tree previously written by Save.
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
	remaining := numNodes
	root, err := t.loadNode(br, nil, 0, numNodes, &remaining)
	if err != nil {
		return nil, err
	}
	if remaining != 0 {
		return nil, fmt.Errorf("pst: node count mismatch: %d unread", remaining)
	}
	t.root = root
	t.numNodes = int(numNodes)
	return t, nil
}

// maxLoadNodes bounds the node count a header may declare; anything
// larger is rejected before allocation. (2^31 nodes would already be a
// >100 GB tree — far beyond any legitimate bundle.)
const maxLoadNodes = int64(1) << 31

func (t *Tree) loadNode(r io.Reader, parent *Node, depth int, total int64, remaining *int64) (*Node, error) {
	if *remaining <= 0 {
		return nil, fmt.Errorf("pst: more nodes in stream than the %d the header declared", total)
	}
	*remaining--
	idx := total - *remaining - 1 // pre-order index of this node, for errors
	if depth > t.cfg.MaxDepth {
		return nil, fmt.Errorf("pst: node %d: depth %d exceeds MaxDepth %d", idx, depth, t.cfg.MaxDepth)
	}
	var (
		sym      uint16
		count    int64
		nonZero  uint32
		children uint32
	)
	nodeFields := []struct {
		name string
		v    any
	}{{"edge symbol", &sym}, {"count", &count}, {"next-entry count", &nonZero}, {"child count", &children}}
	for _, f := range nodeFields {
		if err := binary.Read(r, binary.LittleEndian, f.v); err != nil {
			return nil, fmt.Errorf("pst: node %d: reading %s: %w", idx, f.name, err)
		}
	}
	if count < 0 || int64(nonZero) > int64(t.cfg.AlphabetSize) {
		return nil, fmt.Errorf("pst: node %d: corrupt (count %d, %d next entries, alphabet %d)", idx, count, nonZero, t.cfg.AlphabetSize)
	}
	// Every child consumes at least one of the declared remaining nodes,
	// so a child count beyond that is corrupt; checking here keeps the
	// pre-sized map allocation proportional to the actual stream.
	if int64(children) > *remaining {
		return nil, fmt.Errorf("pst: node %d: declares %d children but only %d nodes remain", idx, children, *remaining)
	}
	n := &Node{
		parent: parent,
		symbol: seq.Symbol(sym),
		depth:  depth,
		Count:  count,
		next:   make([]int64, t.cfg.AlphabetSize),
	}
	for i := uint32(0); i < nonZero; i++ {
		var s uint16
		var c int64
		if err := binary.Read(r, binary.LittleEndian, &s); err != nil {
			return nil, fmt.Errorf("pst: node %d: reading next entry %d symbol: %w", idx, i, err)
		}
		if err := binary.Read(r, binary.LittleEndian, &c); err != nil {
			return nil, fmt.Errorf("pst: node %d: reading next entry %d count: %w", idx, i, err)
		}
		if int(s) >= t.cfg.AlphabetSize || c < 0 {
			return nil, fmt.Errorf("pst: node %d: corrupt next entry (symbol %d, count %d)", idx, s, c)
		}
		n.next[s] = c
	}
	if children > 0 {
		n.children = make(map[seq.Symbol]*Node, children)
		for i := uint32(0); i < children; i++ {
			child, err := t.loadNode(r, n, depth+1, total, remaining)
			if err != nil {
				return nil, err
			}
			if _, dup := n.children[child.symbol]; dup {
				return nil, fmt.Errorf("pst: node %d: duplicate child symbol %d", idx, child.symbol)
			}
			n.children[child.symbol] = child
		}
	}
	return n, nil
}
