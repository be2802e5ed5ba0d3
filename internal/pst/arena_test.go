package pst

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"math/rand/v2"
	"testing"
	"time"

	"cluseq/internal/seq"
)

// buildArenaTree grows a deterministic tree plus probes for arena
// round-trip tests. Pruning three quarters of it by expected vector
// evicts suffix-link targets of nodes that stay significant, so at the
// alphabet sizes up to 6 the tests use, its automaton needs virtual
// nodes.
func buildArenaTree(alpha, inserts, seqLen int, prune bool) (*Tree, [][]seq.Symbol, []float64) {
	rng := rand.New(rand.NewPCG(71, 72))
	tree := MustNew(Config{AlphabetSize: alpha, MaxDepth: 5, Significance: 3, PMin: 0.2 / float64(alpha), Prune: PruneExpectedVector})
	for i := 0; i < inserts; i++ {
		tree.Insert(randomSymbols(rng, seqLen, alpha))
	}
	if prune {
		tree.Prune(tree.NumNodes() / 4)
	}
	probes := make([][]seq.Symbol, 24)
	for i := range probes {
		probes[i] = randomSymbols(rng, 1+rng.IntN(80), alpha)
	}
	return tree, probes, uniformBg(alpha)
}

// reattach serializes a snapshot through its arena bytes and loads it
// back the way the bundle loader does — through a fresh copy, so any
// accidental dependence on the original allocation would surface.
func reattach(t *testing.T, snap *Snapshot) *Snapshot {
	t.Helper()
	raw := append([]byte(nil), snap.Arena()...)
	got, err := SnapshotFromArena(raw, nil)
	if err != nil {
		t.Fatalf("SnapshotFromArena: %v", err)
	}
	return got
}

// TestArenaRoundTrip pins the central zero-copy property: the arena
// bytes alone reconstruct a snapshot that answers bit-identically, in
// every transition-row mix, for closed trees and for a pruned tree
// whose automaton needs virtual nodes.
func TestArenaRoundTrip(t *testing.T) {
	run := func(t *testing.T, prune bool) {
		tree, probes, bg := buildArenaTree(6, 3, 120, prune)
		snap := tree.CompileSnapshot(bg)
		if virtual := requireVirtualRows(t, tree, snap); (virtual > 0) != prune {
			t.Fatalf("prune=%v compiled %d virtual nodes", prune, virtual)
		}
		loaded := reattach(t, snap)
		if loaded.Tree() != nil {
			t.Fatal("arena-loaded snapshot must have no tree")
		}
		for _, probe := range probes {
			if got, want := loaded.Similarity(probe), snap.Similarity(probe); got != want {
				t.Fatalf("arena round trip diverged: %+v != %+v (probe %v)", got, want, probe)
			}
		}
	}
	for _, mode := range []struct {
		name      string
		occupancy int
		allLimit  int
	}{
		{"hybrid", 2, 1 << 8},
		{"dense", 1 << 30, denseAllLimit},
		{"csr", 0, 0},
	} {
		t.Run(mode.name, func(t *testing.T) {
			oldOcc, oldAll := denseOccupancy, denseAllLimit
			denseOccupancy, denseAllLimit = mode.occupancy, mode.allLimit
			defer func() { denseOccupancy, denseAllLimit = oldOcc, oldAll }()
			t.Run("automaton", func(t *testing.T) { run(t, false) })
			t.Run("pruned", func(t *testing.T) { run(t, true) })
		})
	}
}

// TestArenaDecodeFallback forces the big-endian decode-copy path: the
// arena bytes are identical (always little-endian on disk), only the
// view construction differs, and results must not.
func TestArenaDecodeFallback(t *testing.T) {
	tree, probes, bg := buildArenaTree(5, 2, 150, false)
	snap := tree.CompileSnapshot(bg)
	old := arenaZeroCopy
	arenaZeroCopy = false
	defer func() { arenaZeroCopy = old }()
	loaded := reattach(t, snap)
	for _, probe := range probes {
		if got, want := loaded.Similarity(probe), snap.Similarity(probe); got != want {
			t.Fatalf("decode fallback diverged: %+v != %+v", got, want)
		}
	}
}

// TestArenaDelegateRejected: an arena with the legacy delegate flag,
// built by hand since CompileSnapshot no longer writes one, carries no
// tables, so standalone loading must fail with the sentinel error the
// bundle loader recompiles on.
func TestArenaDelegateRejected(t *testing.T) {
	arena := buildArena(arenaHeader{flags: arenaFlagDelegate, n: 4}, func(offs [numArenaSections]int64, arena []byte) {
		putF64s(arena[offs[secBackground]:], uniformBg(4))
	})
	if _, err := SnapshotFromArena(arena, nil); !errors.Is(err, ErrArenaDelegates) {
		t.Fatalf("want ErrArenaDelegates, got %v", err)
	}
}

// TestArenaCorruptionRejected drives truncated, bit-flipped, and
// header-mangled arenas through the loader: every one must fail before
// any table is trusted, with an error naming the culprit. An arena whose
// checksum was recomputed over corrupt tables passes the CRC, so the
// loader must also check every index the scan follows — unchecked, an
// out-of-range transition panics the scan and a parent cycle hangs it —
// and, in a legacy descend arena, the breadth-first child layout. A
// corrupt arena that loads anyway is scanned under a deadline to show
// what it would do.
func TestArenaCorruptionRejected(t *testing.T) {
	closed, _, bg := buildArenaTree(5, 2, 150, false)
	pruned, probes, _ := buildArenaTree(5, 2, 150, true)
	good := closed.CompileSnapshot(bg).Arena()
	dense := pruned.CompileSnapshot(bg).Arena() // small: every row dense
	csr := compileWith(pruned, bg, 0, 0)        // every row but the root CSR
	legacy := descendArena(pruned, bg)
	h, _ := decodeArenaHeader(csr)

	le := binary.LittleEndian
	fill32 := func(b []byte, v uint32) {
		for i := 0; i+4 <= len(b); i += 4 {
			le.PutUint32(b[i:], v)
		}
	}
	cases := []struct {
		name   string
		base   []byte
		mutate func(b []byte) []byte // returns the bytes to load
	}{
		{"empty", good, func(b []byte) []byte { return nil }},
		{"short header", good, func(b []byte) []byte { return b[:arenaHeaderLen-1] }},
		{"bad magic", good, func(b []byte) []byte { b[0] = 'X'; return b }},
		{"truncated payload", good, func(b []byte) []byte { return b[:len(b)-arenaAlign] }},
		{"payload bit flip", good, func(b []byte) []byte { b[len(b)-1] ^= 0x40; return b }},
		{"header crc mismatch", good, func(b []byte) []byte { b[49] ^= 0xFF; return b }},
		{"unknown flags", good, func(b []byte) []byte { le.PutUint32(b[4:8], 0xF0); return reseal(b) }},
		{"zero alphabet", good, func(b []byte) []byte { le.PutUint32(b[8:12], 0); return reseal(b) }},
		{"zero nodes", good, func(b []byte) []byte { le.PutUint32(b[12:16], 0); return reseal(b) }},
		{"rows exceed nodes", good, func(b []byte) []byte { le.PutUint32(b[16:20], 1<<30); return reseal(b) }},
		{"row split mismatch", good, func(b []byte) []byte { le.PutUint32(b[24:28], le.Uint32(b[24:28])+1); return reseal(b) }},
		{"edges exceed nodes", good, func(b []byte) []byte { le.PutUint32(b[28:32], 1<<29); return reseal(b) }},
		{"declared length mismatch", good, func(b []byte) []byte { le.PutUint64(b[40:48], uint64(len(b))+64); return reseal(b) }},
		{"absurd length", good, func(b []byte) []byte { le.PutUint64(b[40:48], 1<<60); return reseal(b) }},

		{"dense targets out of range", dense, func(b []byte) []byte { fill32(section(b, secDenseTrans), 1<<20); return reseal(b) }},
		{"parent cycle", csr, func(b []byte) []byte {
			p := section(b, secParent)
			for i := 0; i < len(p)/4; i++ {
				le.PutUint32(p[4*i:], uint32(i))
			}
			return reseal(b)
		}},
		{"row out of range", csr, func(b []byte) []byte { le.PutUint32(section(b, secRow)[4:], h.rows); return reseal(b) }},
		{"dense row id out of range", dense, func(b []byte) []byte {
			le.PutUint32(section(b, secNodeTrans)[4:], denseFlag|h.numNodes)
			return reseal(b)
		}},
		{"CSR row id out of range", csr, func(b []byte) []byte { le.PutUint32(section(b, secNodeTrans)[4:], h.csrRows); return reseal(b) }},
		{"root row CSR", csr, func(b []byte) []byte { le.PutUint32(section(b, secNodeTrans), 0); return reseal(b) }},
		{"CSR extents decrease", csr, func(b []byte) []byte { le.PutUint32(section(b, secCsrStart)[4:], h.csrEdges+1); return reseal(b) }},
		{"CSR extents overrun", csr, func(b []byte) []byte {
			le.PutUint32(section(b, secCsrStart)[4*h.csrRows:], h.csrEdges+1)
			return reseal(b)
		}},
		{"CSR targets out of range", csr, func(b []byte) []byte { fill32(section(b, secCsrDst), h.numNodes); return reseal(b) }},
		{"CSR symbol out of range", csr, func(b []byte) []byte { le.PutUint16(section(b, secCsrSym), uint16(h.n)); return reseal(b) }},

		{"descend child out of breadth-first order", legacy, func(b []byte) []byte { le.PutUint32(section(b, secChildDst), 2); return reseal(b) }},
		{"descend children not ascending", legacy, func(b []byte) []byte {
			copy(section(b, secChildSym)[2:4], section(b, secChildSym)[0:2])
			return reseal(b)
		}},
		{"descend child symbol out of range", legacy, func(b []byte) []byte { le.PutUint16(section(b, secChildSym), uint16(h.n)); return reseal(b) }},
		{"descend extents start past 0", legacy, func(b []byte) []byte { le.PutUint32(section(b, secChildStart), 1); return reseal(b) }},
		{"descend extents decrease", legacy, func(b []byte) []byte { le.PutUint32(section(b, secChildStart)[4:], 1<<20); return reseal(b) }},
		{"descend node below itself", legacy, func(b []byte) []byte { le.PutUint32(section(b, secChildStart)[4:], 0); return reseal(b) }},
		{"descend row out of range", legacy, func(b []byte) []byte { le.PutUint32(section(b, secRow)[4:], 1<<20); return reseal(b) }},
		{"descend own row below a shared one", legacy, func(b []byte) []byte {
			// Give a significant node p ≠ root with a significant child
			// its parent's row, as if p were insignificant.
			starts, rows := section(b, secChildStart), section(b, secRow)
			at := func(sec []byte, i uint32) uint32 { return le.Uint32(sec[4*i:]) }
			parentOf := func(c uint32) uint32 { // the node whose edges hold edge c−1
				i := uint32(0)
				for at(starts, i+1) < c {
					i++
				}
				return i
			}
			for c := uint32(2); c < h.numNodes; c++ {
				p := parentOf(c)
				if gp := parentOf(p); p != 0 && at(rows, c) != at(rows, p) && at(rows, p) != at(rows, gp) {
					le.PutUint32(rows[4*p:], at(rows, gp))
					return reseal(b)
				}
			}
			panic("no significant node has a significant child")
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s, err := SnapshotFromArena(tc.mutate(append([]byte(nil), tc.base...)), nil)
			if err == nil {
				if err := scanWithin(s, probes, 5*time.Second); err != nil {
					t.Fatalf("corrupt arena loaded, and %v", err)
				}
				t.Fatal("corrupt arena must be rejected")
			}
			t.Logf("rejected: %v", err)
		})
	}
	// Control: the unmutated bytes still load.
	for _, base := range [][]byte{good, dense, csr, legacy} {
		if _, err := SnapshotFromArena(append([]byte(nil), base...), nil); err != nil {
			t.Fatalf("pristine arena must load: %v", err)
		}
	}
}

// reseal recomputes an arena's payload CRC, so the mutation under test
// — not the checksum — is what the loader has to catch.
func reseal(b []byte) []byte {
	binary.LittleEndian.PutUint32(b[48:52], crc32.Checksum(b[arenaHeaderLen:], castagnoli))
	return b
}

// section returns the bytes of one section of an arena.
func section(arena []byte, sec int) []byte {
	h, err := decodeArenaHeader(arena)
	if err != nil {
		panic(err)
	}
	offs, _ := h.offsets()
	size := h.sections()[sec]
	return arena[offs[sec] : offs[sec]+size[0]*size[1]]
}

// scanWithin scans every probe on a goroutine of its own and reports a
// panic, or a scan still running after d. A hung scan cannot be
// stopped, so its goroutine is left behind.
func scanWithin(s *Snapshot, probes [][]seq.Symbol, d time.Duration) error {
	done := make(chan error, 1)
	go func() {
		defer func() {
			if r := recover(); r != nil {
				done <- fmt.Errorf("the scan panicked: %v", r)
			}
		}()
		for _, p := range probes {
			s.Similarity(p)
		}
		done <- nil
	}()
	select {
	case err := <-done:
		return err
	case <-time.After(d):
		return fmt.Errorf("the scan did not return within %v", d)
	}
}

// compileWith compiles tree under the given transition-row knobs (see
// TestSnapshotMatchesTreeRandom) and returns the arena.
func compileWith(tree *Tree, bg []float64, occupancy, allLimit int) []byte {
	oldOcc, oldAll := denseOccupancy, denseAllLimit
	denseOccupancy, denseAllLimit = occupancy, allLimit
	defer func() { denseOccupancy, denseAllLimit = oldOcc, oldAll }()
	return tree.CompileSnapshot(bg).Arena()
}

// descendArena writes tree as a legacy descend arena: flag bit 0, the
// whole breadth-first tree's child sections and its score rows, the
// layout CompileSnapshot wrote for trees out of suffix-link closure
// until it closed them with virtual nodes. As those writers did, it
// gives the root and each significant node, in breadth-first order, a
// row of its own and every other node its parent's, and fills a row
// with ln P̂ − ln p(sym) per symbol, −Inf kept.
func descendArena(tree *Tree, bg []float64) []byte {
	f, nodes := tree.layout(0)
	row := make([]int32, len(nodes))
	var logRatio []float64
	for i, x := range nodes {
		if !tree.Significant(x) {
			row[i] = row[f.parent[i]]
			continue
		}
		row[i] = int32(len(logRatio) / f.n)
		for sym := range f.n {
			v := math.Inf(-1)
			if p := tree.adjust(tree.prob(x, seq.Symbol(sym))); p > 0 {
				v = math.Log(p) - math.Log(bg[sym])
			}
			logRatio = append(logRatio, v)
		}
	}
	num := len(f.parent)
	childDst := make([]int32, num-1)
	for j := range childDst {
		childDst[j] = int32(j + 1)
	}
	h := arenaHeader{
		flags:      arenaFlagDescend,
		n:          uint32(f.n),
		numNodes:   uint32(num),
		rows:       uint32(len(logRatio) / f.n),
		childEdges: uint32(num - 1),
		maxDepth:   uint32(f.maxDepth),
	}
	return buildArena(h, func(offs [numArenaSections]int64, arena []byte) {
		putF64s(arena[offs[secLogRatio]:], logRatio)
		putF64s(arena[offs[secBackground]:], bg)
		putU32s(arena[offs[secRow]:], row)
		putU32s(arena[offs[secChildStart]:], f.childStart)
		putU32s(arena[offs[secChildDst]:], childDst)
		putU16s(arena[offs[secChildSym]:], f.edge[1:])
	})
}

// TestDescendArenaConverts: a legacy descend arena loads as exactly the
// automaton arena CompileSnapshot writes for its tree, virtual nodes
// included, and scores like the tree.
func TestDescendArenaConverts(t *testing.T) {
	tree, probes, bg := buildArenaTree(6, 3, 120, true)
	legacy := descendArena(tree, bg)
	got, err := SnapshotFromArena(append([]byte(nil), legacy...), nil)
	if err != nil {
		t.Fatal(err)
	}
	if want := tree.CompileSnapshot(bg).Arena(); !bytes.Equal(got.Arena(), want) {
		t.Fatalf("descend arena converted to %d bytes that differ from the %d CompileSnapshot writes", len(got.Arena()), len(want))
	}
	if requireVirtualRows(t, tree, got) == 0 {
		t.Fatal("the pruned tree needs no virtual node; the conversion skips the closure")
	}
	for _, p := range probes {
		requireIdentical(t, tree, got, p, bg)
	}
}

// FuzzSnapshotArena mutates up to four bytes of one section of an arena
// — a closed tree's, a pruned tree's with virtual nodes in the hybrid
// and the all-CSR row mix, or a legacy descend arena — and re-stamps
// the CRC, so the mutation reaches the loader's table checks. The load
// must fail, or the loaded snapshot's scan must return.
func FuzzSnapshotArena(f *testing.F) {
	closed, _, bg := buildArenaTree(5, 2, 150, false)
	pruned, probes, _ := buildArenaTree(5, 2, 150, true)
	arenas := [][]byte{
		closed.CompileSnapshot(bg).Arena(),
		compileWith(pruned, bg, 2, 1<<8),
		compileWith(pruned, bg, 0, 0),
		descendArena(pruned, bg),
	}
	f.Add(uint8(0), uint8(secDenseTrans), uint32(0), uint32(1<<20))
	f.Add(uint8(2), uint8(secParent), uint32(8), uint32(0xFF))
	f.Add(uint8(2), uint8(secCsrStart), uint32(4), uint32(0x80))
	f.Add(uint8(3), uint8(secChildStart), uint32(4), uint32(3))
	f.Fuzz(func(t *testing.T, which, sec uint8, pos, xor uint32) {
		b := append([]byte(nil), arenas[int(which)%len(arenas)]...)
		body := section(b, int(sec)%numArenaSections)
		if len(body) == 0 {
			return
		}
		at := int(pos % uint32(len(body)))
		for k := 0; k < 4 && at+k < len(body); k++ {
			body[at+k] ^= byte(xor >> (8 * k))
		}
		s, err := SnapshotFromArena(reseal(b), nil)
		if err != nil {
			return
		}
		if err := scanWithin(s, probes, 10*time.Second); err != nil {
			t.Fatalf("mutated arena loaded, and %v", err)
		}
	})
}

// TestArenaMisalignedBaseRealigns: zero-copy views require a naturally
// aligned base; a deliberately offset slice must still load correctly
// (via the internal realign copy), never fault or skew floats.
func TestArenaMisalignedBaseRealigns(t *testing.T) {
	tree, probes, bg := buildArenaTree(4, 2, 100, false)
	snap := tree.CompileSnapshot(bg)
	buf := make([]byte, len(snap.Arena())+1)
	copy(buf[1:], snap.Arena())
	loaded, err := SnapshotFromArena(buf[1:], nil)
	if err != nil {
		t.Fatalf("misaligned base: %v", err)
	}
	for _, probe := range probes {
		if got, want := loaded.Similarity(probe), snap.Similarity(probe); got != want {
			t.Fatalf("misaligned-base load diverged: %+v != %+v", got, want)
		}
	}
}

// TestSnapshotScanAllocs pins the serving-path contract: a compiled
// scan performs zero allocations, for both compiled and arena-loaded
// snapshots, of closed trees and of pruned ones.
func TestSnapshotScanAllocs(t *testing.T) {
	for _, prune := range []bool{false, true} {
		tree, probes, bg := buildArenaTree(50, 4, 200, prune)
		snap := tree.CompileSnapshot(bg)
		loaded := reattach(t, snap)
		for name, s := range map[string]*Snapshot{"compiled": snap, "arena": loaded} {
			if got := testing.AllocsPerRun(50, func() {
				for _, p := range probes {
					s.Similarity(p)
				}
			}); got != 0 {
				t.Fatalf("%s scan (prune=%v) allocated %.1f times per run, want 0", name, prune, got)
			}
		}
	}
}
