package stream

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash"
	"math"
	"math/rand/v2"
	"testing"

	"cluseq/internal/core"
	"cluseq/internal/datagen"
	"cluseq/internal/pst"
	"cluseq/internal/seq"
)

// goldenReplayConfigs are the engine settings the golden replay pins:
// the perfbench ingest regime (a 256 KiB cap, consolidation every 24
// ingests) with each kind of tree the engine can hold.
var goldenReplayConfigs = []struct {
	name string
	cfg  func(*Config)
}{
	{"cap256k-auto", func(c *Config) { c.MaxPSTBytes = 256 << 10 }},
	{"cap64k-expected-depth6", func(c *Config) {
		c.MaxPSTBytes = 64 << 10
		c.Prune = pst.PruneExpectedVector
		c.MaxDepth = 6
	}},
	{"uncapped-depth6", func(c *Config) { c.MaxDepth = 6 }},
	{"shrinkage8", func(c *Config) { c.Shrinkage = 8 }},
}

// goldenReplayDigests are goldenReplay's two digests per configuration,
// recorded while a shrinkage snapshot still delegated every scan to its
// tree. Compiling shrinkage trees into per-node score rows must leave
// every verdict digest and the three non-shrinkage bundle digests as
// they were. The shrinkage8 bundle digest was re-recorded when its
// published arenas changed from header-and-background stubs to
// compiled tables; its verdict digest was not. The two capped bundle
// digests were re-recorded when trees pruned out of suffix-link closure
// began to compile automaton arenas with virtual nodes in place of
// descend arenas; their verdict digests were not. The three
// non-shrinkage bundle digests were re-recorded again when compiles
// began to lay out only the root and the significant nodes, which
// shrinks every such arena; their verdict digests, and both shrinkage
// digests, were not.
var goldenReplayDigests = map[string]struct{ verdicts, bundles string }{
	"cap256k-auto": {
		"8c821b4bd9c29ce74a402f91d46a5650bf1b47f42c37847ecf8476f10640c975",
		"cbaf986bf168a8bf03fd8e4d04c5a8047e8dc6a4c7430e655b674f143d4d7690",
	},
	"cap64k-expected-depth6": {
		"7a3735e899e71f9fca08d9ee6a87be1ebf43c8cfcbf77a35f1cc6605bee6b26d",
		"84dc1488020da20dcfbf7f0e5136bb80a28a4baca0b4ba70a92203328f37bcbf",
	},
	"uncapped-depth6": {
		"2cef447424ddcfaf9a815e0d4bd7c1a13bf3306dd4967efa70516d490e78e7de",
		"96017ff6f0c63f68bf6658aa255ce2cd9370f5c6aaff51bdbb5880b912a67873",
	},
	"shrinkage8": {
		"aaebd90261eedd92274e80dc2c6e16933d99d3757df55a4c97526550b4f8f84c",
		"41bb4098d15e5ba679ca7e020a62c57465bedd06886854ec945d6dd05998c9c2",
	},
}

// goldenReplay feeds a fixed planted-family stream to an engine built
// from cfg — a primed batch, single ingests, then batches of 16, as
// perfbench's ingest workload does — and returns two SHA-256 digests
// and the number of bundles published. The verdict digest covers every
// verdict (status, cluster, similarity bits), each published
// classifier's verdicts on a fixed probe set, and the final Stats; the
// bundle digest covers every published classifier saved WithTrees.
func goldenReplay(t *testing.T, cfg Config) (verdicts, bundles string, publishes int) {
	t.Helper()
	db, err := datagen.SyntheticDB(datagen.SyntheticConfig{
		NumSequences: 400,
		AvgLength:    100,
		AlphabetSize: 20,
		NumClusters:  6,
		OutlierFrac:  0.05,
		Seed:         11,
	})
	if err != nil {
		t.Fatalf("SyntheticDB: %v", err)
	}
	all := make([][]seq.Symbol, db.Len())
	for i, s := range db.Sequences {
		all[i] = s.Symbols
	}
	// The probe set: every 16th sequence of the stream, plus noise.
	var probes [][]seq.Symbol
	for i := 0; i < len(all); i += 16 {
		probes = append(probes, all[i])
	}
	rng := rand.New(rand.NewPCG(3, 5))
	for i := 0; i < 8; i++ {
		p := make([]seq.Symbol, 20+rng.IntN(100))
		for j := range p {
			p[j] = seq.Symbol(rng.IntN(db.Alphabet.Size()))
		}
		probes = append(probes, p)
	}

	hv, hb := sha256.New(), sha256.New()
	cfg.Alphabet = db.Alphabet
	cfg.ConsolidateEvery = 24
	cfg.Publish = func(clf *core.Classifier, version uint64) {
		publishes++
		for _, p := range probes {
			a := clf.Classify(p)
			fmt.Fprintf(hv, "classify v%d %d %x %v\n", version, a.Cluster, math.Float64bits(a.Similarity), a.Memberships)
		}
		var buf bytes.Buffer
		if err := clf.SaveBundle(&buf, core.BundleOptions{WithTrees: true, PublishedVersion: version}); err != nil {
			t.Fatalf("SaveBundle v%d: %v", version, err)
		}
		fmt.Fprintf(hb, "publish %d %x\n", version, sha256.Sum256(buf.Bytes()))
	}
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	hashVerdicts(hv, e.IngestBatch(all[:120]))
	for _, s := range all[120:260] {
		hashVerdicts(hv, []Verdict{e.Ingest(s)})
	}
	for i := 260; i < len(all); i += 16 {
		hashVerdicts(hv, e.IngestBatch(all[i:min(i+16, len(all))]))
	}
	e.ConsolidateNow()
	st, err := json.Marshal(e.Stats())
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(hv, "stats %s\n", st)
	return hex.EncodeToString(hv.Sum(nil)), hex.EncodeToString(hb.Sum(nil)), publishes
}

func hashVerdicts(h hash.Hash, vs []Verdict) {
	for _, v := range vs {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v.Similarity))
		fmt.Fprintf(h, "%s %d %x %s\n", v.Status, v.Cluster, b, v.Reason)
	}
}

// TestGoldenReplay pins the stream engine's observable output — every
// verdict, every published classifier's verdicts and WithTrees bundle,
// and the final Stats — at Workers 1 and 2.
func TestGoldenReplay(t *testing.T) {
	for _, gc := range goldenReplayConfigs {
		for _, workers := range []int{1, 2} {
			t.Run(fmt.Sprintf("%s/workers%d", gc.name, workers), func(t *testing.T) {
				cfg := Config{Workers: workers}
				gc.cfg(&cfg)
				verdicts, bundles, publishes := goldenReplay(t, cfg)
				if publishes < 10 {
					t.Fatalf("only %d publishes; the replay would pin too little", publishes)
				}
				want := goldenReplayDigests[gc.name]
				if verdicts != want.verdicts {
					t.Errorf("verdict digest %s, want %s (%d publishes)", verdicts, want.verdicts, publishes)
				}
				if bundles != want.bundles {
					t.Errorf("bundle digest %s, want %s (%d publishes)", bundles, want.bundles, publishes)
				}
			})
		}
	}
}
