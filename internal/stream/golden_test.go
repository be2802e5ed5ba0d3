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

// goldenReplayDigests are the replay digests of goldenReplay, recorded
// before consolidation compiled stale clusters ahead of the merge test,
// decided coverage early and shared its snapshots with the published
// classifier, and before pruning broke key ties on a (depth, pre-order
// rank) key. Each of those changes is meant to leave every verdict,
// every published bundle and the final Stats bit for bit as they were.
var goldenReplayDigests = map[string]string{
	"cap256k-auto":           "de7a979c653a277da8b6e9534f2a08e357b3e802e5f9c44dc658e77c5ed21839",
	"cap64k-expected-depth6": "f3a4d31a04e2f705da6ec7eae31642283b7d9953f854b34ef68ea862fcda042f",
	"uncapped-depth6":        "f377e0852699fbc8b273a546c2ec9ace74d90a12655aa8a905aba82f48902210",
	"shrinkage8":             "d83389e860b7b811d8090c92d0f42410524ae0b6b08d31f84f5174cf8f29027c",
}

// goldenReplay feeds a fixed planted-family stream to an engine built
// from cfg — a primed batch, single ingests, then batches of 16, as
// perfbench's ingest workload does — and returns the SHA-256 of every
// verdict (status, cluster, similarity bits), of every published
// classifier saved WithTrees, and of the final Stats, plus the number of
// bundles published.
func goldenReplay(t *testing.T, cfg Config) (string, int) {
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
	h := sha256.New()
	var publishes int
	cfg.Alphabet = db.Alphabet
	cfg.ConsolidateEvery = 24
	cfg.Publish = func(clf *core.Classifier, version uint64) {
		publishes++
		var buf bytes.Buffer
		if err := clf.SaveBundle(&buf, core.BundleOptions{WithTrees: true, PublishedVersion: version}); err != nil {
			t.Fatalf("SaveBundle v%d: %v", version, err)
		}
		sum := sha256.Sum256(buf.Bytes())
		fmt.Fprintf(h, "publish %d %x\n", version, sum)
	}
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	all := make([][]seq.Symbol, db.Len())
	for i, s := range db.Sequences {
		all[i] = s.Symbols
	}
	hashVerdicts(h, e.IngestBatch(all[:120]))
	for _, s := range all[120:260] {
		hashVerdicts(h, []Verdict{e.Ingest(s)})
	}
	for i := 260; i < len(all); i += 16 {
		hashVerdicts(h, e.IngestBatch(all[i:min(i+16, len(all))]))
	}
	e.ConsolidateNow()
	st, err := json.Marshal(e.Stats())
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(h, "stats %s\n", st)
	return hex.EncodeToString(h.Sum(nil)), publishes
}

func hashVerdicts(h hash.Hash, vs []Verdict) {
	for _, v := range vs {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v.Similarity))
		fmt.Fprintf(h, "%s %d %x %s\n", v.Status, v.Cluster, b, v.Reason)
	}
}

// TestGoldenReplay pins the stream engine's observable output — every
// verdict, every published WithTrees bundle and the final Stats — to
// digests recorded before the consolidation and prune speed-ups, at
// Workers 1 and 2.
func TestGoldenReplay(t *testing.T) {
	for _, gc := range goldenReplayConfigs {
		for _, workers := range []int{1, 2} {
			t.Run(fmt.Sprintf("%s/workers%d", gc.name, workers), func(t *testing.T) {
				cfg := Config{Workers: workers}
				gc.cfg(&cfg)
				got, publishes := goldenReplay(t, cfg)
				if publishes < 10 {
					t.Fatalf("only %d publishes; the replay would pin too little", publishes)
				}
				if want := goldenReplayDigests[gc.name]; got != want {
					t.Fatalf("replay digest %s, want %s (%d publishes)", got, want, publishes)
				}
			})
		}
	}
}
