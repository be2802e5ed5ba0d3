package core

import (
	"bytes"
	"os"
	"testing"

	"cluseq/internal/pst"
	"cluseq/internal/seq"
)

// FuzzClassifierBundle exercises the model-bundle serialization both
// ways:
//
//   - forward: a classifier assembled from arbitrary insert streams must
//     survive SaveBundle→Load→SaveBundle with byte-identical output (the
//     property the registry's fingerprint-based hot reload relies on),
//     and the loaded copy must classify identically;
//   - backward: LoadClassifier on an arbitrarily mutated or truncated
//     bundle — the fresh v3 one, the legacy v2 fixture and the legacy v3
//     fixture of descend arenas — must return an error or a valid
//     classifier: never panic, and never allocate proportionally to a
//     corrupt size field.
func FuzzClassifierBundle(f *testing.F) {
	_, v2 := v2Fixture(f)
	descend, err := os.ReadFile(legacyDescendPath)
	if err != nil {
		f.Fatal(err)
	}
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
				if b == 0xFF { // segment delimiter, as in FuzzPSTInsertPredict
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

		var b1 bytes.Buffer
		if err := clf.SaveBundle(&b1, BundleOptions{}); err != nil {
			t.Fatalf("SaveBundle: %v", err)
		}
		loaded, err := LoadClassifierBytes(b1.Bytes(), nil)
		if err != nil {
			t.Fatalf("Load of a freshly saved bundle: %v", err)
		}
		var b2 bytes.Buffer
		if err := loaded.SaveBundle(&b2, BundleOptions{}); err != nil {
			t.Fatalf("SaveBundle after Load: %v", err)
		}
		if !bytes.Equal(b1.Bytes(), b2.Bytes()) {
			t.Fatalf("SaveBundle→Load→SaveBundle not byte-identical (%d vs %d bytes)", b1.Len(), b2.Len())
		}
		probe := make([]seq.Symbol, 0, len(streamA))
		for _, b := range streamA {
			probe = append(probe, seq.Symbol(int(b)%n))
		}
		a, b := clf.Classify(probe), loaded.Classify(probe)
		if a.Cluster != b.Cluster || a.Similarity != b.Similarity {
			t.Fatalf("round-tripped classifier disagrees: %+v vs %+v", a, b)
		}

		// Mutate one byte (and also truncate) — Load must never panic.
		for _, data := range [][]byte{b1.Bytes(), v2, descend} {
			pos := int(mutPos) % len(data)
			mutated := append([]byte(nil), data...)
			mutated[pos] ^= mutXor
			_, _ = LoadClassifier(bytes.NewReader(mutated))
			_, _ = LoadClassifier(bytes.NewReader(mutated[:pos]))
		}
	})
}
