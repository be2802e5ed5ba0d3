package core

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"strings"
	"testing"

	"cluseq/internal/pst"
	"cluseq/internal/seq"
)

// trainedClassifier builds a real classifier from a planted-cluster
// run, for bundle round-trip tests.
func trainedClassifier(t *testing.T, shrinkage float64) (*Classifier, [][]seq.Symbol) {
	t.Helper()
	db := testDB(t, 150, 3, 0, 103)
	cfg := testConfig()
	cfg.KeepTrees = true
	cfg.Shrinkage = shrinkage
	res, err := Cluster(db, cfg)
	if err != nil {
		t.Fatal(err)
	}
	clf, err := NewClassifier(db, res, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := newTestRand(9)
	probes := make([][]seq.Symbol, 40)
	for i := range probes {
		probes[i] = randomNoise(rng, 5+rng.IntN(150), 12)
	}
	return clf, probes
}

func requireSameVerdicts(t *testing.T, want, got *Classifier, probes [][]seq.Symbol, label string) {
	t.Helper()
	for _, p := range probes {
		a, b := want.Classify(p), got.Classify(p)
		if a.Cluster != b.Cluster || a.Similarity != b.Similarity || len(a.Memberships) != len(b.Memberships) {
			t.Fatalf("%s: verdict diverged: %+v != %+v", label, b, a)
		}
		for i := range a.Memberships {
			if a.Memberships[i] != b.Memberships[i] {
				t.Fatalf("%s: membership diverged: %v != %v", label, b.Memberships, a.Memberships)
			}
		}
	}
}

func saveV3(t *testing.T, clf *Classifier, opts BundleOptions) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := clf.SaveBundle(&buf, opts); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestBundleV3RoundTrip: a treeless v3 bundle must classify exactly as
// the classifier it was saved from — through both the bytes loader and
// the io.Reader conversion path — and report the same model info.
func TestBundleV3RoundTrip(t *testing.T) {
	clf, probes := trainedClassifier(t, 0)
	data := saveV3(t, clf, BundleOptions{PublishedVersion: 42})
	if !IsBundleV3(data) {
		t.Fatal("saved bundle must carry the v3 magic")
	}

	fromBytes, err := LoadClassifierBytes(append([]byte(nil), data...), nil)
	if err != nil {
		t.Fatal(err)
	}
	fromReader, err := LoadClassifier(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	for name, got := range map[string]*Classifier{"bytes": fromBytes, "reader": fromReader} {
		requireSameVerdicts(t, clf, got, probes, name)
		if got.Trees() != nil {
			t.Fatalf("%s: treeless bundle must load without trees", name)
		}
		if got.PublishedVersion() != 42 {
			t.Fatalf("%s: published version %d, want 42", name, got.PublishedVersion())
		}
		if got.NumClusters() != clf.NumClusters() {
			t.Fatalf("%s: %d clusters, want %d", name, got.NumClusters(), clf.NumClusters())
		}
		wantInfo, gotInfo := clf.Info(), got.Info()
		if gotInfo.Clusters != wantInfo.Clusters || gotInfo.TotalNodes != wantInfo.TotalNodes ||
			gotInfo.MaxDepth != wantInfo.MaxDepth || gotInfo.Alphabet != wantInfo.Alphabet ||
			gotInfo.Threshold != wantInfo.Threshold {
			t.Fatalf("%s: info diverged: %+v != %+v", name, gotInfo, wantInfo)
		}
		for i, ti := range wantInfo.Trees {
			if gotInfo.Trees[i] != ti {
				t.Fatalf("%s: tree %d info %+v != %+v", name, i, gotInfo.Trees[i], ti)
			}
		}
		// String classification must survive, alphabet included.
		if _, err := got.ClassifyString(gotInfo.Alphabet); err != nil {
			t.Fatalf("%s: ClassifyString: %v", name, err)
		}
	}
}

// TestBundleV3WithTrees: embedding trees must reconstruct them for the
// resume path without perturbing classification.
func TestBundleV3WithTrees(t *testing.T) {
	clf, probes := trainedClassifier(t, 0)
	data := saveV3(t, clf, BundleOptions{WithTrees: true, PublishedVersion: 7})
	got, err := LoadClassifierBytes(data, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Trees()) != clf.NumClusters() {
		t.Fatalf("loaded %d trees, want %d", len(got.Trees()), clf.NumClusters())
	}
	for i, tree := range got.Trees() {
		if tree == nil {
			t.Fatalf("tree %d missing", i)
		}
	}
	requireSameVerdicts(t, clf, got, probes, "with-trees")
	// And a resaved bundle must be byte-identical (determinism).
	if !bytes.Equal(saveV3(t, got, BundleOptions{WithTrees: true, PublishedVersion: 7}), data) {
		t.Fatal("resaving a with-trees bundle must be deterministic")
	}
}

// TestBundleV3ShrinkageWithoutTrees: shrinkage clusters compile to
// ordinary scan tables, so a bundle saved without WithTrees carries no
// tree section, loads treeless and classifies exactly as the classifier
// it was saved from.
func TestBundleV3ShrinkageWithoutTrees(t *testing.T) {
	clf, probes := trainedClassifier(t, 6)
	data := saveV3(t, clf, BundleOptions{})
	le := binary.LittleEndian
	for i := 0; i < int(le.Uint32(data[20:24])); i++ {
		if kind := le.Uint32(data[bundleHeaderLen+i*bundleEntryLen:]); kind == bundleSecTree {
			t.Fatalf("section %d is a tree section; the bundle was saved without WithTrees", i)
		}
	}
	got, err := LoadClassifierBytes(data, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got.Trees() != nil {
		t.Fatal("a bundle saved without WithTrees must load without trees")
	}
	requireSameVerdicts(t, clf, got, probes, "shrinkage")
}

// TestBundleV3SaveDeterministic pins byte-identical output, which the
// registry's fingerprint reload depends on.
func TestBundleV3SaveDeterministic(t *testing.T) {
	clf, _ := trainedClassifier(t, 0)
	a := saveV3(t, clf, BundleOptions{PublishedVersion: 3})
	b := saveV3(t, clf, BundleOptions{PublishedVersion: 3})
	if !bytes.Equal(a, b) {
		t.Fatal("SaveBundle must be deterministic")
	}
}

// TestBundleV3VersusV2 is the legacy-conversion gate: the v2 fixture
// must load into exactly the classifier it was written from, and
// re-saving that as v3 must classify identically after loading.
func TestBundleV3VersusV2(t *testing.T) {
	clf, v2 := v2Fixture(t)
	rng := newTestRand(11)
	probes := make([][]seq.Symbol, 40)
	for i := range probes {
		probes[i] = randomNoise(rng, 1+rng.IntN(60), 4)
	}
	fromV2, err := LoadClassifier(bytes.NewReader(v2))
	if err != nil {
		t.Fatal(err)
	}
	requireSameVerdicts(t, clf, fromV2, probes, "v2")
	fromV3, err := LoadClassifierBytes(saveV3(t, fromV2, BundleOptions{}), nil)
	if err != nil {
		t.Fatal(err)
	}
	requireSameVerdicts(t, fromV2, fromV3, probes, "v2-vs-v3")
}

// TestBundleV3CorruptRejected mangles headers and sections: every
// mutation must be rejected with the culprit named, never a panic or a
// silent wrong model.
func TestBundleV3CorruptRejected(t *testing.T) {
	clf, _ := trainedClassifier(t, 0)
	good := saveV3(t, clf, BundleOptions{})
	le := binary.LittleEndian
	mutate := func(f func(b []byte) []byte) []byte {
		return f(append([]byte(nil), good...))
	}
	resealHeader := func(b []byte) []byte {
		le.PutUint32(b[60:64], crc32.Checksum(b[:60], castagnoli))
		return b
	}
	cases := []struct {
		name string
		data []byte
		want string // substring the error must contain, "" = any error
	}{
		{"empty", nil, ""},
		{"magic only", good[:12], "header"},
		{"v2 magic into bytes loader", []byte("CLUSEQCLFv2\nrest"), "not a v3 bundle"},
		{"truncated", good[:len(good)/2], "length"},
		{"header bit flip", mutate(func(b []byte) []byte { b[17] ^= 1; return b }), "checksum"},
		{"zero clusters", mutate(func(b []byte) []byte { le.PutUint32(b[16:20], 0); return resealHeader(b) }), "cluster count"},
		{"absurd section count", mutate(func(b []byte) []byte { le.PutUint32(b[20:24], 1<<24); return resealHeader(b) }), "section count"},
		{"section crc flip", mutate(func(b []byte) []byte { b[len(b)-1] ^= 0x80; return b }), "checksum"},
		{"misaligned section", mutate(func(b []byte) []byte {
			off := le.Uint64(b[bundleHeaderLen+8:])
			le.PutUint64(b[bundleHeaderLen+8:], off+8)
			return b
		}), "aligned"},
		{"section beyond file", mutate(func(b []byte) []byte {
			le.PutUint64(b[bundleHeaderLen+16:], 1<<40)
			return b
		}), "exceeds"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := LoadClassifierBytes(tc.data, nil)
			if err == nil {
				t.Fatal("corrupt bundle must be rejected")
			}
			if tc.want != "" && !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not name the culprit (%q)", err, tc.want)
			}
			t.Logf("rejected: %v", err)
		})
	}
	if _, err := LoadClassifierBytes(append([]byte(nil), good...), nil); err != nil {
		t.Fatalf("pristine bundle must load: %v", err)
	}
}

// TestBundleV3ArenaCorruptionNamesSection: damage inside a snapshot
// arena (with the bundle-level CRC patched to match) must still be
// caught by the arena's own validation, named by section.
func TestBundleV3ArenaCorruptionNamesSection(t *testing.T) {
	clf, _ := trainedClassifier(t, 0)
	good := saveV3(t, clf, BundleOptions{})
	b := append([]byte(nil), good...)
	le := binary.LittleEndian
	// Find the first snapshot section in the table and zero its magic.
	secCount := int(le.Uint32(b[20:24]))
	for i := 0; i < secCount; i++ {
		e := b[bundleHeaderLen+i*bundleEntryLen:]
		if le.Uint32(e[0:4]) != bundleSecSnapshot {
			continue
		}
		off, length := le.Uint64(e[8:16]), le.Uint64(e[16:24])
		copy(b[off:off+4], "XXXX")
		le.PutUint32(e[24:28], crc32.Checksum(b[off:off+length], castagnoli))
		break
	}
	_, err := LoadClassifierBytes(b, nil)
	if err == nil || !strings.Contains(err.Error(), "snapshot[") {
		t.Fatalf("want a snapshot-section error, got %v", err)
	}
}

// FuzzBundleV3 mirrors FuzzClassifierBundle for format v3: forward
// (save→load→identical verdicts and deterministic resave) and backward
// (mutated bundles never panic and never load as something else).
func FuzzBundleV3(f *testing.F) {
	f.Add([]byte("abcabcabcabc"), []byte("dddddddd"), uint8(4), uint16(0), byte(0))
	f.Add([]byte{0, 1, 2, 3, 0xFF, 3, 2, 1, 0}, []byte{1, 1, 2, 2}, uint8(6), uint16(77), byte(0x10))
	f.Add([]byte{7, 7, 7}, []byte{}, uint8(2), uint16(2000), byte(0xFF))
	f.Fuzz(func(t *testing.T, streamA, streamB []byte, alphaByte uint8, mutPos uint16, mutXor byte) {
		n := int(alphaByte)%12 + 2
		alphabet := seq.MustAlphabet("abcdefghijklmn"[:n])
		cfg := pst.Config{AlphabetSize: n, MaxDepth: 4, Significance: 2, PMin: 0.1 / float64(n)}
		insert := func(tree *pst.Tree, stream []byte) {
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
		}
		treeA, treeB := pst.MustNew(cfg), pst.MustNew(cfg)
		insert(treeA, streamA)
		insert(treeB, streamB)
		bg := make([]float64, n)
		for i := range bg {
			bg[i] = 1 / float64(n)
		}
		clf, err := NewClassifierFromParts([]*pst.Tree{treeA, treeB}, nil, alphabet, bg, 1.1)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := clf.SaveBundle(&buf, BundleOptions{WithTrees: len(streamA)%2 == 0}); err != nil {
			t.Fatal(err)
		}
		data := buf.Bytes()

		loaded, err := LoadClassifierBytes(append([]byte(nil), data...), nil)
		if err != nil {
			t.Fatalf("round trip failed: %v", err)
		}
		probe := make([]seq.Symbol, 0, len(streamB))
		for _, b := range streamB {
			if b != 0xFF {
				probe = append(probe, seq.Symbol(int(b)%n))
			}
		}
		a, b := clf.Classify(probe), loaded.Classify(probe)
		if a.Cluster != b.Cluster || a.Similarity != b.Similarity {
			t.Fatalf("verdict diverged after round trip: %+v != %+v", b, a)
		}

		// Backward: a mutated bundle must never panic the loader.
		mut := append([]byte(nil), data...)
		mut[int(mutPos)%len(mut)] ^= mutXor
		if mutated, err := LoadClassifierBytes(mut, nil); err == nil && mutated != nil {
			_ = mutated.Classify(probe) // a surviving mutation must still be a usable model
		}
	})
}
