package core

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"math/rand/v2"
	"os"
	"slices"
	"strings"
	"testing"

	"cluseq/internal/pst"
	"cluseq/internal/seq"
)

// legacyShrinkagePath holds a v3 bundle of legacyShrinkageClassifier as
// SaveBundle wrote shrinkage models up to commit 732556d: every snapshot
// section is a delegate arena (the header and background only, arena
// flag bit 1) and every cluster's tree rides in a tree section.
// legacyShrinkageVerdictsPath holds that classifier's verdicts on a
// fixed probe set, recorded by the same commit. Were they ever lost,
// check out that commit, save legacyShrinkageClassifier's classifier
// with SaveBundle(BundleOptions{}) and record Classify on the probes.
const (
	legacyShrinkagePath         = "testdata/classifier_v3_shrinkage_delegate.bundle"
	legacyShrinkageVerdictsPath = "testdata/classifier_v3_shrinkage_delegate.verdicts.json"
)

// legacyDescendPath holds a v3 bundle of legacyDescendClassifier saved
// WithTrees as commit ea5b83f wrote it: the memory cap pruned every
// cluster tree out of suffix-link closure, so every snapshot section is
// a descend arena (arena flag bit 0, child sections in place of the
// transition tables). legacyDescendVerdictsPath holds that
// classifier's verdicts on legacyDescendProbes, recorded by the same
// commit. Were they ever lost, check out that commit, save
// legacyDescendClassifier's classifier with
// SaveBundle(BundleOptions{WithTrees: true}) and record ClassifyString
// on the probes.
const (
	legacyDescendPath         = "testdata/classifier_v3_descend.bundle"
	legacyDescendVerdictsPath = "testdata/classifier_v3_descend.verdicts.json"
)

// legacyVerdict is one recorded verdict of the legacy shrinkage fixture.
// Similarity is the float64's bit pattern in hex, so the comparison is
// exact.
type legacyVerdict struct {
	Sequence    string `json:"sequence"`
	Cluster     int    `json:"cluster"`
	Similarity  string `json:"similarity_bits"`
	Memberships []int  `json:"memberships"`
}

func newLegacyVerdict(s string, a Assignment) legacyVerdict {
	return legacyVerdict{
		Sequence:    s,
		Cluster:     a.Cluster,
		Similarity:  fmt.Sprintf("%016x", math.Float64bits(a.Similarity)),
		Memberships: append([]int{}, a.Memberships...),
	}
}

// legacyShrinkageClassifier rebuilds the classifier the legacy fixture
// was saved from: three shrinkage-mode clusters over alphabet "abcd".
func legacyShrinkageClassifier(t testing.TB) *Classifier {
	t.Helper()
	alphabet := seq.MustAlphabet("abcd")
	cfg := pst.Config{AlphabetSize: 4, MaxDepth: 4, Significance: 3, PMin: 0.02, Shrinkage: 4}
	var trees []*pst.Tree
	for _, members := range [][]string{
		{"abcabcabcabdabcabc", "abcabdabcabcabcab", "cabcabcabdab", "bcabcabcabca"},
		{"dcbdcbddcbdcbd", "bddcbddcbdcbdd", "dcdcbdcddcbdcb"},
		{"aadaadaadbaad", "daadaadaadaa", "adaadbadaada", "aadaadaad"},
	} {
		tree := pst.MustNew(cfg)
		for _, m := range members {
			syms, err := alphabet.Encode(m)
			if err != nil {
				t.Fatal(err)
			}
			tree.Insert(syms)
		}
		trees = append(trees, tree)
	}
	clf, err := NewClassifierFromParts(trees, nil, alphabet, []float64{0.3, 0.25, 0.25, 0.2}, 1.15)
	if err != nil {
		t.Fatal(err)
	}
	return clf
}

// legacyDescendClassifier rebuilds the classifier the descend fixture was
// saved from: three clusters over alphabet "abcdef" whose trees the
// §5.1 memory cap pruned, with expected-vector eviction, out of
// suffix-link closure.
func legacyDescendClassifier(t testing.TB) *Classifier {
	t.Helper()
	alphabet := seq.MustAlphabet("abcdef")
	cfg := pst.Config{AlphabetSize: 6, MaxDepth: 5, Significance: 2, PMin: 0.02, MaxBytes: 12 << 10, Prune: pst.PruneExpectedVector}
	rng := rand.New(rand.NewPCG(17, 19))
	var trees []*pst.Tree
	for _, motif := range []string{"abcabd", "ddefec", "fabdce"} {
		tree := pst.MustNew(cfg)
		for k := 0; k < 10; k++ {
			member := make([]byte, 0, 60)
			for len(member) < 40+rng.IntN(20) {
				for _, r := range []byte(motif) {
					if rng.IntN(5) == 0 {
						r = "abcdef"[rng.IntN(6)]
					}
					member = append(member, r)
				}
			}
			syms, err := alphabet.Encode(string(member))
			if err != nil {
				t.Fatal(err)
			}
			tree.Insert(syms)
		}
		trees = append(trees, tree)
	}
	clf, err := NewClassifierFromParts(trees, nil, alphabet, []float64{0.2, 0.2, 0.15, 0.2, 0.1, 0.15}, 1.1)
	if err != nil {
		t.Fatal(err)
	}
	return clf
}

// legacyDescendProbes is the fixed probe set the descend fixture's
// verdicts were recorded on: motif variants and uniform noise.
func legacyDescendProbes() []string {
	rng := rand.New(rand.NewPCG(23, 29))
	var out []string
	for i := 0; i < 24; i++ {
		motif := []string{"abcabd", "ddefec", "fabdce", ""}[i%4]
		var b []byte
		for len(b) < 15+rng.IntN(30) {
			if motif == "" {
				b = append(b, "abcdef"[rng.IntN(6)])
				continue
			}
			for _, r := range []byte(motif) {
				if rng.IntN(4) == 0 {
					r = "abcdef"[rng.IntN(6)]
				}
				b = append(b, r)
			}
		}
		out = append(out, string(b))
	}
	return out
}

// readLegacyFixture reads a legacy bundle and its recorded verdicts.
func readLegacyFixture(t *testing.T, bundlePath, verdictsPath string) ([]byte, []legacyVerdict) {
	t.Helper()
	data, err := os.ReadFile(bundlePath)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(verdictsPath)
	if err != nil {
		t.Fatal(err)
	}
	var want []legacyVerdict
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) == 0 {
		t.Fatal("the fixture records no verdicts")
	}
	return data, want
}

// snapshotSections returns the bodies of a v3 bundle's snapshot
// sections, in table order.
func snapshotSections(data []byte) [][]byte {
	le := binary.LittleEndian
	var out [][]byte
	for i := 0; i < int(le.Uint32(data[20:24])); i++ {
		e := data[bundleHeaderLen+i*bundleEntryLen:]
		if le.Uint32(e[0:4]) == bundleSecSnapshot {
			off, length := le.Uint64(e[8:16]), le.Uint64(e[16:24])
			out = append(out, data[off:off+length])
		}
	}
	return out
}

// loadLegacyFixture loads a legacy bundle through the bytes loader and
// the io.Reader path, and requires both, and compiled — the classifier
// the bundle was saved from, compiled today — to serve the recorded
// verdicts. It returns the loaded classifiers by path.
func loadLegacyFixture(t *testing.T, data []byte, want []legacyVerdict, compiled *Classifier) map[string]*Classifier {
	t.Helper()
	fromBytes, err := LoadClassifierBytes(append([]byte(nil), data...), nil)
	if err != nil {
		t.Fatal(err)
	}
	fromReader, err := LoadClassifier(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	loaded := map[string]*Classifier{"bytes": fromBytes, "reader": fromReader}
	for name, clf := range map[string]*Classifier{"bytes": fromBytes, "reader": fromReader, "compiled": compiled} {
		for _, w := range want {
			a, err := clf.ClassifyString(w.Sequence)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if got := newLegacyVerdict(w.Sequence, a); got.Cluster != w.Cluster || got.Similarity != w.Similarity || !slices.Equal(got.Memberships, w.Memberships) {
				t.Fatalf("%s: verdict on %q is %+v, recorded %+v", name, w.Sequence, got, w)
			}
		}
	}
	return loaded
}

// TestBundleV3LegacyShrinkageLoads: a bundle written while shrinkage
// snapshots delegated to their trees still loads — through the bytes
// loader and the io.Reader path — and serves the verdicts recorded when
// it was written; so does the same classifier compiled today.
func TestBundleV3LegacyShrinkageLoads(t *testing.T) {
	data, want := readLegacyFixture(t, legacyShrinkagePath, legacyShrinkageVerdictsPath)

	// The fixture must exercise the legacy path: every snapshot section
	// is a delegate arena.
	secs := snapshotSections(data)
	for i, body := range secs {
		if _, err := pst.SnapshotFromArena(append([]byte(nil), body...), nil); !errors.Is(err, pst.ErrArenaDelegates) {
			t.Fatalf("snapshot section %d: want a delegate arena, got %v", i, err)
		}
	}
	if len(secs) != 3 {
		t.Fatalf("%d delegate arenas, want 3", len(secs))
	}
	loadLegacyFixture(t, data, want, legacyShrinkageClassifier(t))
}

// TestBundleV3LegacyDescendLoads: a bundle whose snapshot sections are
// descend arenas, written while trees pruned out of suffix-link closure
// compiled for root-down descent, still loads and serves the verdicts
// recorded when it was written; so does the same classifier compiled
// today. The loader converts each descend arena into exactly the
// automaton arena CompileSnapshot now writes for the cluster's tree.
func TestBundleV3LegacyDescendLoads(t *testing.T) {
	data, want := readLegacyFixture(t, legacyDescendPath, legacyDescendVerdictsPath)

	// The fixture must exercise the legacy path: arena flag bit 0 marks
	// every snapshot section as a descend arena.
	secs := snapshotSections(data)
	for i, body := range secs {
		if flags := binary.LittleEndian.Uint32(body[4:8]); flags != 1 {
			t.Fatalf("snapshot section %d: arena flags %#x, want a descend arena", i, flags)
		}
	}
	if len(secs) != 3 {
		t.Fatalf("%d descend arenas, want 3", len(secs))
	}
	for name, clf := range loadLegacyFixture(t, data, want, legacyDescendClassifier(t)) {
		if len(clf.Trees()) != len(secs) {
			t.Fatalf("%s: %d trees for %d clusters", name, len(clf.Trees()), len(secs))
		}
		for i, tree := range clf.Trees() {
			if got, want := clf.Snapshots()[i].Arena(), tree.CompileSnapshot(clf.Background()).Arena(); !bytes.Equal(got, want) {
				t.Fatalf("%s: cluster %d converted to a %d-byte arena, CompileSnapshot writes %d other bytes", name, i, len(got), len(want))
			}
		}
	}
}

// withSection returns the v3 bundle data with the body of section
// (kind, index) replaced, the sections laid out again and every
// checksum recomputed.
func withSection(data []byte, kind, index uint32, body []byte) []byte {
	le := binary.LittleEndian
	count := int(le.Uint32(data[20:24]))
	out := append([]byte(nil), data[:bundleHeaderLen+count*bundleEntryLen]...)
	for i := 0; i < count; i++ {
		e := bundleHeaderLen + i*bundleEntryLen
		off, length := le.Uint64(data[e+8:]), le.Uint64(data[e+16:])
		sec := data[off : off+length]
		if le.Uint32(data[e:]) == kind && le.Uint32(data[e+4:]) == index {
			sec = body
		}
		out = append(out, make([]byte, alignUpI64(int64(len(out)), bundleAlign)-int64(len(out)))...)
		le.PutUint64(out[e+8:], uint64(len(out)))
		le.PutUint64(out[e+16:], uint64(len(sec)))
		le.PutUint32(out[e+24:], crc32.Checksum(sec, castagnoli))
		out = append(out, sec...)
	}
	le.PutUint64(out[32:40], uint64(len(out)))
	le.PutUint32(out[60:64], crc32.Checksum(out[:60], castagnoli))
	return out
}

// pathTree writes, in the PSTv1 format, a tree that no Insert grows: one
// random root path of k nodes over an alphabet of alpha symbols, with
// MaxDepth k. Its suffix-link closure holds every substring of the
// path's context, about k²/2 nodes.
func pathTree(rng *rand.Rand, k, alpha int) []byte {
	le := binary.LittleEndian
	b := []byte("PSTv1\n")
	for _, v := range []int64{int64(alpha), int64(k), 1, 0, 0} { // alphabet, max depth, significance, max bytes, prune
		b = le.AppendUint64(b, uint64(v))
	}
	b = le.AppendUint64(b, 0)                       // p_min
	b = append(b, 0)                                // adaptive flag
	b = le.AppendUint64(b, math.Float64bits(4))     // shrinkage
	for _, v := range []int64{1, 0, int64(k + 1)} { // insertions, pruned, nodes
		b = le.AppendUint64(b, uint64(v))
	}
	for d := 0; d <= k; d++ { // pre-order: edge, count, next entries, children
		b = le.AppendUint16(b, uint16(rng.IntN(alpha)))
		b = le.AppendUint64(b, 1)
		b = le.AppendUint32(b, 0)
		b = le.AppendUint32(b, uint32(min(1, k-d)))
	}
	return b
}

// TestBundleV3RefusesUnclosableTree: a delegate arena makes the loader
// compile its cluster's tree section, and every snapshot compiles the
// tree closed under suffix links. A crafted tree there, one random root
// path, must fail to load with its section named, not close into about
// k²/2 nodes; a path short enough to close within the bound loads and
// classifies.
func TestBundleV3RefusesUnclosableTree(t *testing.T) {
	data, _ := readLegacyFixture(t, legacyShrinkagePath, legacyShrinkageVerdictsPath)
	rng := rand.New(rand.NewPCG(31, 37))
	crafted := withSection(data, bundleSecTree, 0, pathTree(rng, 2000, 4))
	if _, err := LoadClassifierBytes(crafted, nil); err == nil || !strings.Contains(err.Error(), "tree[0]") || !strings.Contains(err.Error(), "suffix links") {
		t.Fatalf("a 2000-node path in section tree[0] must be refused for its closure, got %v", err)
	}
	clf, err := LoadClassifierBytes(withSection(data, bundleSecTree, 0, pathTree(rng, 200, 4)), nil)
	if err != nil {
		t.Fatalf("a 200-node path closes within the bound and must load: %v", err)
	}
	if _, err := clf.ClassifyString("abcdabcdaabbccdd"); err != nil {
		t.Fatal(err)
	}
}
