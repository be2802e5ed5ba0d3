package core

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"slices"
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
	clf, err := NewClassifierFromParts(trees, nil, alphabet, []float64{0.3, 0.25, 0.25, 0.2}, 1.15, false)
	if err != nil {
		t.Fatal(err)
	}
	return clf
}

// TestBundleV3LegacyShrinkageLoads: a bundle written while shrinkage
// snapshots delegated to their trees still loads — through the bytes
// loader and the io.Reader path — and serves the verdicts recorded when
// it was written; so does the same classifier compiled today.
func TestBundleV3LegacyShrinkageLoads(t *testing.T) {
	data, err := os.ReadFile(legacyShrinkagePath)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(legacyShrinkageVerdictsPath)
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

	// The fixture must exercise the legacy path: every snapshot section
	// is a delegate arena.
	le := binary.LittleEndian
	delegates := 0
	for i := 0; i < int(le.Uint32(data[20:24])); i++ {
		e := data[bundleHeaderLen+i*bundleEntryLen:]
		if le.Uint32(e[0:4]) != bundleSecSnapshot {
			continue
		}
		off, length := le.Uint64(e[8:16]), le.Uint64(e[16:24])
		if _, err := pst.SnapshotFromArena(append([]byte(nil), data[off:off+length]...), nil); !errors.Is(err, pst.ErrArenaDelegates) {
			t.Fatalf("snapshot section %d: want a delegate arena, got %v", i, err)
		}
		delegates++
	}
	if delegates != 3 {
		t.Fatalf("%d delegate arenas, want 3", delegates)
	}

	fromBytes, err := LoadClassifierBytes(append([]byte(nil), data...), nil)
	if err != nil {
		t.Fatal(err)
	}
	fromReader, err := LoadClassifier(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	for name, clf := range map[string]*Classifier{
		"bytes":    fromBytes,
		"reader":   fromReader,
		"compiled": legacyShrinkageClassifier(t),
	} {
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
}
