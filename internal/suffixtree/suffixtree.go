// Package suffixtree implements a generalized suffix tree over symbol
// sequences using Ukkonen's online construction algorithm (Ukkonen 1995,
// paper reference [28]). The suffix tree is the classic structure the
// paper's probabilistic suffix tree descends from (§3); this package
// provides exact substring queries and occurrence counts, and serves as a
// cross-checking oracle for the PST's segment counters in tests.
//
// Multiple sequences are handled with the standard concatenation trick:
// each added sequence is followed by a unique terminator symbol that can
// never appear in a query, so matches never span sequence boundaries.
package suffixtree

import (
	"cluseq/internal/seq"
)

// node is one suffix tree node. Edge labels are stored as [start, end)
// index ranges into the tree's concatenated text; end == infinity marks a
// leaf edge that grows with the text (Ukkonen's open edges).
type node struct {
	start     int
	end       int // exclusive; infinity for open leaf edges
	children  map[int32]*node
	link      *node
	leafCount int // populated by finalize
}

const infinity = int(^uint(0) >> 1)

func (n *node) isLeaf() bool { return n.children == nil }

// edgeLen returns the length of the edge leading to n given the current
// text length.
func (n *node) edgeLen(textLen int) int {
	end := n.end
	if end > textLen {
		end = textLen
	}
	return end - n.start
}

// Tree is a generalized suffix tree under online construction. The zero
// value is not usable; call New.
type Tree struct {
	text []int32 // encoded symbols plus negative per-sequence terminators
	root *node

	// Ukkonen construction state.
	activeNode   *node
	activeEdge   int // index into text of the first symbol of the active edge
	activeLength int
	remainder    int
	needSL       *node

	nSequences int
	finalized  bool
}

// New returns an empty generalized suffix tree.
func New() *Tree {
	root := &node{start: -1, end: -1, children: make(map[int32]*node)}
	return &Tree{root: root, activeNode: root}
}

// Add inserts one sequence (and its unique terminator) into the tree.
func (t *Tree) Add(s []seq.Symbol) {
	for _, sym := range s {
		t.extend(int32(sym))
	}
	t.nSequences++
	t.extend(int32(-t.nSequences)) // unique terminator, never queryable
	t.finalized = false
}

// extend runs one phase of Ukkonen's algorithm, appending symbol c.
func (t *Tree) extend(c int32) {
	pos := len(t.text)
	t.text = append(t.text, c)
	t.needSL = nil
	t.remainder++
	for t.remainder > 0 {
		if t.activeLength == 0 {
			t.activeEdge = pos
		}
		edgeSym := t.text[t.activeEdge]
		next := t.activeNode.children[edgeSym]
		if next == nil {
			// Rule 2: no edge starts with the active symbol — add a leaf.
			t.activeNode.children[edgeSym] = &node{start: pos, end: infinity}
			t.addSuffixLink(t.activeNode)
		} else {
			if el := next.edgeLen(len(t.text)); t.activeLength >= el {
				// Walk down: the active point lies beyond this edge.
				t.activeEdge += el
				t.activeLength -= el
				t.activeNode = next
				continue
			}
			if t.text[next.start+t.activeLength] == c {
				// Rule 3: the symbol is already present; this phase ends.
				t.activeLength++
				t.addSuffixLink(t.activeNode)
				break
			}
			// Rule 2 with split: the edge diverges mid-label.
			split := &node{
				start:    next.start,
				end:      next.start + t.activeLength,
				children: make(map[int32]*node, 2),
			}
			t.activeNode.children[edgeSym] = split
			split.children[c] = &node{start: pos, end: infinity}
			next.start += t.activeLength
			split.children[t.text[next.start]] = next
			t.addSuffixLink(split)
		}
		t.remainder--
		if t.activeNode == t.root && t.activeLength > 0 {
			t.activeLength--
			t.activeEdge = pos - t.remainder + 1
		} else if t.activeNode != t.root {
			if t.activeNode.link != nil {
				t.activeNode = t.activeNode.link
			} else {
				t.activeNode = t.root
			}
		}
	}
}

func (t *Tree) addSuffixLink(n *node) {
	if t.needSL != nil && t.needSL != n {
		t.needSL.link = n
	}
	t.needSL = n
}

// locate walks p from the root and returns the node whose subtree holds all
// occurrences of p, or nil when p does not occur. The second result is how
// many symbols of the final edge label were consumed.
func (t *Tree) locate(p []seq.Symbol) (*node, int) {
	if len(p) == 0 {
		return t.root, 0
	}
	n := t.root
	i := 0
	for i < len(p) {
		child := n.children[int32(p[i])]
		if child == nil {
			return nil, 0
		}
		el := child.edgeLen(len(t.text))
		j := 0
		for j < el && i < len(p) {
			if t.text[child.start+j] != int32(p[i]) {
				return nil, 0
			}
			i++
			j++
		}
		if i == len(p) {
			return child, j
		}
		n = child
	}
	return n, 0
}

// Contains reports whether the segment p occurs in any added sequence.
func (t *Tree) Contains(p []seq.Symbol) bool {
	n, _ := t.locate(p)
	return n != nil
}

// Count returns the number of occurrences of segment p across all added
// sequences. The empty segment occurs once per symbol plus once per
// terminator; callers interested in symbol positions should avoid querying
// it.
func (t *Tree) Count(p []seq.Symbol) int {
	t.finalize()
	n, _ := t.locate(p)
	if n == nil {
		return 0
	}
	return n.leafCount
}

// finalize computes per-node leaf counts. It runs once after the most
// recent Add; construction invalidates it.
func (t *Tree) finalize() {
	if t.finalized {
		return
	}
	// Iterative post-order accumulation; recursion depth can reach the
	// longest repeated substring, which is unbounded for adversarial input.
	type frame struct {
		n       *node
		visited bool
	}
	stack := []frame{{t.root, false}}
	for len(stack) > 0 {
		f := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if f.n.isLeaf() {
			f.n.leafCount = 1
			continue
		}
		if f.visited {
			total := 0
			for _, c := range f.n.children {
				total += c.leafCount
			}
			f.n.leafCount = total
			continue
		}
		stack = append(stack, frame{f.n, true})
		for _, c := range f.n.children {
			stack = append(stack, frame{c, false})
		}
	}
	t.finalized = true
}

// NumNodes returns the total number of nodes, including the root.
func (t *Tree) NumNodes() int {
	count := 0
	stack := []*node{t.root}
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		count++
		for _, c := range n.children {
			stack = append(stack, c)
		}
	}
	return count
}
