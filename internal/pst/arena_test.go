package pst

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math/rand/v2"
	"testing"

	"cluseq/internal/seq"
)

// buildArenaTree grows a deterministic tree plus probes for arena
// round-trip tests.
func buildArenaTree(alpha, inserts, seqLen int, prune bool) (*Tree, [][]seq.Symbol, []float64) {
	rng := rand.New(rand.NewPCG(71, 72))
	tree := MustNew(Config{AlphabetSize: alpha, MaxDepth: 5, Significance: 3, PMin: 0.2 / float64(alpha)})
	for i := 0; i < inserts; i++ {
		tree.Insert(randomSymbols(rng, seqLen, alpha))
	}
	if prune {
		tree.Prune(tree.NumNodes() / 2)
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
// every transition-row mix and in descend mode.
func TestArenaRoundTrip(t *testing.T) {
	run := func(t *testing.T, prune bool) {
		tree, probes, bg := buildArenaTree(6, 3, 120, prune)
		snap := tree.CompileSnapshot(bg)
		if prune != snap.descend && tree.NumNodes() > 4 {
			// Pruning usually breaks slink closure; if this seed kept it
			// closed the automaton assertions below still hold.
			t.Logf("prune=%v descend=%v", prune, snap.descend)
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
			t.Run("descend", func(t *testing.T) { run(t, true) })
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
	arena, _ := buildArena(arenaHeader{flags: arenaFlagDelegate, n: 4}, func(offs [numArenaSections]int64, arena []byte) {
		putF64s(arena[offs[secBackground]:], uniformBg(4))
	})
	if _, err := SnapshotFromArena(arena, nil); !errors.Is(err, ErrArenaDelegates) {
		t.Fatalf("want ErrArenaDelegates, got %v", err)
	}
}

// TestArenaCorruptionRejected drives truncated, bit-flipped, and
// header-mangled arenas through the loader: every one must fail before
// any table is trusted, with an error naming the culprit.
func TestArenaCorruptionRejected(t *testing.T) {
	tree, _, bg := buildArenaTree(5, 2, 150, false)
	good := tree.CompileSnapshot(bg).Arena()

	mutate := func(f func(b []byte) []byte) []byte {
		return f(append([]byte(nil), good...))
	}
	le := binary.LittleEndian
	reseal := func(b []byte) []byte {
		// Recompute the payload CRC so the mutation under test — not the
		// checksum — is what the loader has to catch.
		le.PutUint32(b[48:52], crc32.Checksum(b[arenaHeaderLen:], castagnoli))
		return b
	}
	cases := []struct {
		name string
		data []byte
	}{
		{"empty", nil},
		{"short header", good[:arenaHeaderLen-1]},
		{"bad magic", mutate(func(b []byte) []byte { b[0] = 'X'; return b })},
		{"truncated payload", good[:len(good)-arenaAlign]},
		{"payload bit flip", mutate(func(b []byte) []byte { b[len(b)-1] ^= 0x40; return b })},
		{"header crc mismatch", mutate(func(b []byte) []byte { b[49] ^= 0xFF; return b })},
		{"unknown flags", mutate(func(b []byte) []byte { le.PutUint32(b[4:8], 0xF0); return reseal(b) })},
		{"zero alphabet", mutate(func(b []byte) []byte { le.PutUint32(b[8:12], 0); return reseal(b) })},
		{"zero nodes", mutate(func(b []byte) []byte { le.PutUint32(b[12:16], 0); return reseal(b) })},
		{"rows exceed nodes", mutate(func(b []byte) []byte { le.PutUint32(b[16:20], 1<<30); return reseal(b) })},
		{"row split mismatch", mutate(func(b []byte) []byte { le.PutUint32(b[24:28], le.Uint32(b[24:28])+1); return reseal(b) })},
		{"edges exceed nodes", mutate(func(b []byte) []byte { le.PutUint32(b[28:32], 1<<29); return reseal(b) })},
		{"declared length mismatch", mutate(func(b []byte) []byte { le.PutUint64(b[40:48], uint64(len(b))+64); return reseal(b) })},
		{"absurd length", mutate(func(b []byte) []byte { le.PutUint64(b[40:48], 1<<60); return reseal(b) })},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := SnapshotFromArena(tc.data, nil); err == nil {
				t.Fatal("corrupt arena must be rejected")
			} else {
				t.Logf("rejected: %v", err)
			}
		})
	}
	// Control: the unmutated bytes still load.
	if _, err := SnapshotFromArena(append([]byte(nil), good...), nil); err != nil {
		t.Fatalf("pristine arena must load: %v", err)
	}
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
// snapshots.
func TestSnapshotScanAllocs(t *testing.T) {
	tree, probes, bg := buildArenaTree(50, 4, 200, false)
	snap := tree.CompileSnapshot(bg)
	loaded := reattach(t, snap)
	for name, s := range map[string]*Snapshot{"compiled": snap, "arena": loaded} {
		if got := testing.AllocsPerRun(50, func() {
			for _, p := range probes {
				s.Similarity(p)
			}
		}); got != 0 {
			t.Fatalf("%s scan allocated %.1f times per run, want 0", name, got)
		}
	}
}
