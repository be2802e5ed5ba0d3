package core

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand/v2"
	"os"
	"strings"
	"testing"

	"cluseq/internal/datagen"
	"cluseq/internal/pst"
	"cluseq/internal/seq"
)

func TestClassifierAssignsNewSequences(t *testing.T) {
	db := testDB(t, 200, 3, 0, 91)
	cfg := testConfig()
	cfg.KeepTrees = true
	res, err := Cluster(db, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.NumClusters() < 2 {
		t.Skipf("only %d clusters formed", res.NumClusters())
	}
	clf, err := NewClassifier(db, res, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if clf.NumClusters() != res.NumClusters() {
		t.Fatalf("classifier has %d clusters, result %d", clf.NumClusters(), res.NumClusters())
	}

	// Label each cluster by its majority planted source, then classify
	// FRESH sequences from each source and check they land in a cluster
	// of the matching majority.
	majority := make([]string, res.NumClusters())
	for i, c := range res.Clusters {
		counts := map[string]int{}
		for _, m := range c.Members {
			counts[db.Sequences[m].Label]++
		}
		best, bestN := "", 0
		for l, n := range counts {
			if n > bestN {
				best, bestN = l, n
			}
		}
		majority[i] = best
	}

	rng := newTestRand(123)
	correct, total := 0, 0
	for srcID := 0; srcID < 3; srcID++ {
		src := datagen.NewClusterSource(srcID, 91, 12, 3)
		want := []string{"cluster00", "cluster01", "cluster02"}[srcID]
		for trial := 0; trial < 10; trial++ {
			probe := src.Generate(120, rng)
			a := clf.Classify(probe)
			total++
			if a.Cluster >= 0 && majority[a.Cluster] == want {
				correct++
			}
		}
	}
	if float64(correct)/float64(total) < 0.7 {
		t.Fatalf("classifier got %d/%d fresh sequences right", correct, total)
	}
}

func TestClassifierRejectsOutliers(t *testing.T) {
	db := testDB(t, 150, 3, 0, 97)
	cfg := testConfig()
	cfg.KeepTrees = true
	res, err := Cluster(db, cfg)
	if err != nil {
		t.Fatal(err)
	}
	clf, err := NewClassifier(db, res, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := newTestRand(5)
	rejected := 0
	const probes = 20
	for i := 0; i < probes; i++ {
		noise := randomNoise(rng, 120, 12)
		if a := clf.Classify(noise); a.Cluster == -1 {
			rejected++
			if len(a.Memberships) != 0 {
				t.Fatal("outlier with -1 cluster must have empty memberships")
			}
		}
	}
	if rejected < probes*6/10 {
		t.Fatalf("only %d/%d random probes rejected", rejected, probes)
	}
}

func TestClassifierEmptyAndErrors(t *testing.T) {
	db := testDB(t, 80, 2, 0, 101)
	cfg := testConfig()
	res, err := Cluster(db, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Without KeepTrees the classifier must refuse.
	if _, err := NewClassifier(db, res, cfg); err == nil {
		t.Fatal("NewClassifier should fail without kept trees")
	}
	if _, err := NewClassifier(nil, res, cfg); err == nil {
		t.Fatal("NewClassifier should fail on nil database")
	}
	if _, err := NewClassifier(db, &Result{}, cfg); err == nil {
		t.Fatal("NewClassifier should fail on empty result")
	}

	cfg.KeepTrees = true
	res, err = Cluster(db, cfg)
	if err != nil {
		t.Fatal(err)
	}
	clf, err := NewClassifier(db, res, cfg)
	if err != nil {
		t.Fatal(err)
	}
	a := clf.Classify(nil)
	if a.Cluster != -1 || len(a.Memberships) != 0 {
		t.Fatalf("empty sequence should be an outlier: %+v", a)
	}
}

func TestClassifierSaveLoadRoundTrip(t *testing.T) {
	db := testDB(t, 150, 3, 0, 103)
	cfg := testConfig()
	cfg.KeepTrees = true
	res, err := Cluster(db, cfg)
	if err != nil {
		t.Fatal(err)
	}
	clf, err := NewClassifier(db, res, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := clf.SaveBundle(&buf, BundleOptions{}); err != nil {
		t.Fatalf("SaveBundle: %v", err)
	}
	loaded, err := LoadClassifier(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("LoadClassifier: %v", err)
	}
	if loaded.NumClusters() != clf.NumClusters() {
		t.Fatalf("clusters = %d, want %d", loaded.NumClusters(), clf.NumClusters())
	}
	// Every sequence must classify identically.
	for _, s := range db.Sequences[:40] {
		a := clf.Classify(s.Symbols)
		b := loaded.Classify(s.Symbols)
		if a.Cluster != b.Cluster || math.Abs(a.Similarity-b.Similarity) > 1e-9 {
			t.Fatalf("classification differs after round trip: %+v vs %+v", a, b)
		}
		if len(a.Memberships) != len(b.Memberships) {
			t.Fatalf("memberships differ: %v vs %v", a.Memberships, b.Memberships)
		}
	}
}

func TestLoadClassifierRejectsCorrupt(t *testing.T) {
	cases := map[string][]byte{
		"empty":        {},
		"bad magic":    []byte("NOTACLASSIFIER bundle with enough bytes"),
		"truncated v1": append([]byte("CLUSEQCLFv1\n"), 1, 2, 3),
		"truncated v2": append([]byte("CLUSEQCLFv2\n"), 1, 2, 3),
	}
	for name, in := range cases {
		if _, err := LoadClassifier(bytes.NewReader(in)); err == nil {
			t.Errorf("%s: LoadClassifier should fail", name)
		}
	}
}

// savedTestClassifier trains a tiny classifier and returns it with its
// serialized bundle.
func savedTestClassifier(t *testing.T) (*Classifier, []byte) {
	t.Helper()
	db := testDB(t, 120, 2, 0, 107)
	cfg := testConfig()
	cfg.KeepTrees = true
	res, err := Cluster(db, cfg)
	if err != nil {
		t.Fatal(err)
	}
	clf, err := NewClassifier(db, res, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := clf.SaveBundle(&buf, BundleOptions{}); err != nil {
		t.Fatal(err)
	}
	return clf, buf.Bytes()
}

// v2FixturePath holds a bundle in the legacy format v2, written by
// Classifier.Save — the v2 writer this package carried up to commit
// d64ab7e — for the classifier v2Fixture rebuilds. Were it ever lost,
// check out that commit and write v2Fixture's classifier with Save.
const v2FixturePath = "testdata/classifier_v2.bundle"

// v2Fixture returns the legacy v2 bundle's bytes and the classifier
// they were written from, rebuilt from its parts: two clusters over
// alphabet "abcd".
func v2Fixture(t testing.TB) (*Classifier, []byte) {
	t.Helper()
	data, err := os.ReadFile(v2FixturePath)
	if err != nil {
		t.Fatal(err)
	}
	alphabet := seq.MustAlphabet("abcd")
	cfg := pst.Config{AlphabetSize: 4, MaxDepth: 3, Significance: 2, PMin: 0.01}
	trees := make([]*pst.Tree, 2)
	for i, members := range [][]string{
		{"abcabcabcabd", "abcabdabcabc", "cabcabcab"},
		{"dcbdcbddcb", "bddcbddcbd", "dcdcbdcd"},
	} {
		trees[i] = pst.MustNew(cfg)
		for _, m := range members {
			syms, err := alphabet.Encode(m)
			if err != nil {
				t.Fatal(err)
			}
			trees[i].Insert(syms)
		}
	}
	clf, err := NewClassifierFromParts(trees, nil, alphabet, []float64{0.3, 0.25, 0.25, 0.2}, 1.1)
	if err != nil {
		t.Fatal(err)
	}
	return clf, data
}

func TestClassifierAlphabetRoundTrip(t *testing.T) {
	clf, data := savedTestClassifier(t)
	if clf.Alphabet() == nil {
		t.Fatal("NewClassifier should capture the training alphabet")
	}
	loaded, err := LoadClassifier(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Alphabet() == nil || loaded.Alphabet().String() != clf.Alphabet().String() {
		t.Fatalf("alphabet lost in round trip: %v", loaded.Alphabet())
	}
	// ClassifyString must agree with Classify on the encoded symbols.
	raw := clf.Alphabet().Decode(randomNoise(newTestRand(7), 60, clf.Alphabet().Size()))
	a, err := loaded.ClassifyString(raw)
	if err != nil {
		t.Fatal(err)
	}
	syms, err := loaded.Alphabet().Encode(raw)
	if err != nil {
		t.Fatal(err)
	}
	if b := loaded.Classify(syms); a.Cluster != b.Cluster || a.Similarity != b.Similarity {
		t.Fatalf("ClassifyString %+v != Classify %+v", a, b)
	}
	// Unknown runes must error, not panic.
	if _, err := loaded.ClassifyString("\x00\x01 definitely not in alphabet ☃"); err == nil {
		t.Fatal("ClassifyString should reject runes outside the alphabet")
	}
}

// asV1Bundle rewrites a v2 bundle as the v1 format (no alphabet section).
func asV1Bundle(t *testing.T, v2 []byte) []byte {
	t.Helper()
	const magicLen, hdrLen = 12, 8 + 8 + 8 + 1
	alphaLen := int64(binary.LittleEndian.Uint64(v2[magicLen+hdrLen:]))
	out := append([]byte(nil), classifierMagicV1...)
	out = append(out, v2[magicLen:magicLen+hdrLen]...)
	out = append(out, v2[magicLen+hdrLen+8+int(alphaLen):]...)
	return out
}

// TestLoadClassifierRejectsOutOfAlphabetEdge: a tree section whose
// first child carries an edge symbol beyond the alphabet must fail the
// load with an error naming the tree. Such a tree used to load: its
// snapshot then panicked indexing a dense transition row, or, for this
// fixture's deeper trees, compiled in descent mode around a context no
// input can reach.
func TestLoadClassifierRejectsOutOfAlphabetEdge(t *testing.T) {
	_, data := v2Fixture(t)
	data = append([]byte(nil), data...)
	le := binary.LittleEndian
	// magic, header (tree count, symbol count, threshold, raw flag), the
	// alphabet section, the background, then tree 0's size and its PSTv1
	// bytes: a 87-byte header, then the root's 18 fixed bytes and its
	// 10-byte next entries, then the first child's edge symbol.
	const magicLen, hdrLen = 12, 8 + 8 + 8 + 1
	nBg := int(le.Uint64(data[magicLen+8:]))
	alphaLen := int(le.Uint64(data[magicLen+hdrLen:]))
	tree := magicLen + hdrLen + 8 + alphaLen + 8*nBg + 8
	root := tree + 87
	child := root + 18 + 10*int(le.Uint32(data[root+10:]))
	le.PutUint16(data[child:], 60000)
	_, err := LoadClassifier(bytes.NewReader(data))
	if err == nil {
		t.Fatal("LoadClassifier should reject an edge symbol outside the alphabet")
	}
	if !strings.Contains(err.Error(), "tree 0") || !strings.Contains(err.Error(), "edge symbol 60000") {
		t.Fatalf("error should name tree 0 and the edge symbol, got: %v", err)
	}
}

func TestLoadClassifierAcceptsV1(t *testing.T) {
	clf, data := v2Fixture(t)
	loaded, err := LoadClassifier(bytes.NewReader(asV1Bundle(t, data)))
	if err != nil {
		t.Fatalf("LoadClassifier on v1 bundle: %v", err)
	}
	if loaded.Alphabet() != nil {
		t.Fatal("v1 bundle should load with a nil alphabet")
	}
	if _, err := loaded.ClassifyString("anything"); err == nil {
		t.Fatal("ClassifyString should refuse on an alphabet-less classifier")
	}
	// Symbol-level classification must be unaffected.
	rng := newTestRand(3)
	for i := 0; i < 20; i++ {
		probe := randomNoise(rng, 1+rng.IntN(50), loaded.Info().AlphabetSize)
		if a, b := clf.Classify(probe), loaded.Classify(probe); a.Cluster != b.Cluster || a.Similarity != b.Similarity {
			t.Fatalf("v1 classification differs: %+v vs %+v", a, b)
		}
	}
}

func TestClassifierInfo(t *testing.T) {
	clf, data := savedTestClassifier(t)
	info := clf.Info()
	if info.Clusters != clf.NumClusters() || len(info.Trees) != clf.NumClusters() {
		t.Fatalf("Info clusters %d/%d, want %d", info.Clusters, len(info.Trees), clf.NumClusters())
	}
	if info.AlphabetSize != clf.Alphabet().Size() || info.Alphabet != clf.Alphabet().String() {
		t.Fatalf("Info alphabet %q (%d) disagrees with %q", info.Alphabet, info.AlphabetSize, clf.Alphabet().String())
	}
	if info.Threshold <= 0 {
		t.Fatalf("Info threshold %v", info.Threshold)
	}
	if info.TotalNodes < info.Clusters {
		t.Fatalf("TotalNodes %d below cluster count", info.TotalNodes)
	}
	for i, tr := range info.Trees {
		if tr.Nodes < 1 {
			t.Fatalf("tree %d reports %d nodes", i, tr.Nodes)
		}
	}
	loaded, err := LoadClassifier(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if got := loaded.Info(); got.TotalNodes != info.TotalNodes || got.Threshold != info.Threshold {
		t.Fatalf("Info differs after round trip: %+v vs %+v", got, info)
	}
}

func TestLoadClassifierFailsFastOnCorruptSizes(t *testing.T) {
	_, data := v2Fixture(t)
	const magicLen, hdrLen = 12, 25
	patch := func(off int, v uint64) []byte {
		out := append([]byte(nil), data...)
		binary.LittleEndian.PutUint64(out[off:], v)
		return out
	}
	alphaOff := magicLen + hdrLen
	cases := map[string][]byte{
		"giant tree count":      patch(magicLen, 1<<40),
		"giant alphabet count":  patch(magicLen+8, 1<<40),
		"giant alphabet length": patch(alphaOff, 1<<50),
		// Tree size fields live past the background; clobbering the
		// alphabet length to a small wrong value must also fail cleanly.
		"wrong alphabet length": patch(alphaOff, 3),
	}
	for name, in := range cases {
		if _, err := LoadClassifier(bytes.NewReader(in)); err == nil {
			t.Errorf("%s: LoadClassifier should fail", name)
		}
	}
	// A truncated background must name the section.
	alphaLen := int(binary.LittleEndian.Uint64(data[alphaOff:]))
	cut := alphaOff + 8 + alphaLen + 11 // mid-way through background floats
	if _, err := LoadClassifier(bytes.NewReader(data[:cut])); err == nil {
		t.Error("truncated background should fail")
	} else if !strings.Contains(err.Error(), "background") {
		t.Errorf("error should name the background section, got: %v", err)
	}
}

// TestClassifierSaveDeterministic pins the property the registry's
// fingerprint reload relies on: saving twice, or re-saving what was
// loaded, yields the same bytes.
func TestClassifierSaveDeterministic(t *testing.T) {
	clf, data := savedTestClassifier(t)
	var again bytes.Buffer
	if err := clf.SaveBundle(&again, BundleOptions{}); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, again.Bytes()) {
		t.Fatal("SaveBundle output is not byte-deterministic")
	}
	loaded, err := LoadClassifier(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	var resaved bytes.Buffer
	if err := loaded.SaveBundle(&resaved, BundleOptions{}); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, resaved.Bytes()) {
		t.Fatal("SaveBundle after Load is not byte-identical")
	}
}

func randomNoise(rng *rand.Rand, n, alpha int) []seq.Symbol {
	out := make([]seq.Symbol, n)
	for i := range out {
		out[i] = seq.Symbol(rng.IntN(alpha))
	}
	return out
}
