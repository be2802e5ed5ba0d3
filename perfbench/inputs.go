package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash"
	"hash/fnv"
	"io/fs"
	"math/rand/v2"
	"os"
	"path/filepath"
	"runtime/debug"
	"slices"
	"sort"
	"strings"
	"time"

	"cluseq/internal/core"
	"cluseq/internal/datagen"
	"cluseq/internal/seq"
	"cluseq/internal/server"
)

// The planted-family database of paper §6.2 at the experiments' small
// scale (internal/experiments, ScaleSmall): 10 short-memory sources of
// order 3 over a 50-symbol alphabet, sequences of 100–300 symbols, 5%
// memoryless outliers.
//
// The sources are fixed: they come from familySeed, datagen's default
// generator seed, and a database's seed draws only its sequences, their
// lengths and their order. With sources drawn from the run seed too, the
// stream engine's accuracy over ten seeds spread by 21% of its median,
// against 12% with fixed sources (README.md, "What the seed draws").
const (
	familySeed     = 1
	familyCount    = 10
	familyOrder    = 3
	familyAlphabet = 50
	familyLength   = 200
	outlierShare   = 0.05
)

// plantedAlphabet is datagen's synthetic alphabet: printable runes from
// '!' on, skipping the text format's structural '#' and '>'.
var plantedAlphabet = func() *seq.Alphabet {
	runes := make([]rune, 0, familyAlphabet)
	for r := rune('!'); len(runes) < familyAlphabet; r++ {
		if r != '#' && r != '>' {
			runes = append(runes, r)
		}
	}
	return seq.MustAlphabet(string(runes))
}()

// plantedDB draws n labeled sequences of avgLen symbols on average, as
// datagen.SyntheticDB does: families round-robin, then the outliers,
// shuffled together. Planted outliers carry an empty label.
func plantedDB(seed uint64, n, avgLen int) *seq.Database {
	db := seq.NewDatabase(plantedAlphabet)
	rng := rand.New(rand.NewPCG(seed, seed^0x5bf03635))
	sources := make([]*datagen.ClusterSource, familyCount)
	for i := range sources {
		sources[i] = datagen.NewClusterSource(i, familySeed, familyAlphabet, familyOrder)
	}
	outliers := int(float64(n) * outlierShare)
	length := func() int { return avgLen/2 + rng.IntN(avgLen+1) }
	for i := 0; i < n-outliers; i++ {
		c := i % familyCount
		db.Add(&seq.Sequence{ID: fmt.Sprintf("syn%06d", i), Label: fmt.Sprintf("cluster%02d", c), Symbols: sources[c].Generate(length(), rng)})
	}
	for i := 0; i < outliers; i++ {
		syms := make([]seq.Symbol, length())
		for j := range syms {
			syms[j] = seq.Symbol(rng.IntN(familyAlphabet))
		}
		db.Add(&seq.Sequence{ID: fmt.Sprintf("out%06d", i), Symbols: syms})
	}
	rng.Shuffle(db.Len(), func(i, j int) { db.Sequences[i], db.Sequences[j] = db.Sequences[j], db.Sequences[i] })
	return db
}

// clusterConfig is the experiments' small-scale CLUSEQ configuration, with
// the §4.6 threshold adjustment on and uncapped trees. Workers is
// GOMAXPROCS; KeepTrees lets a result become a Classifier.
func clusterConfig(seed uint64) core.Config {
	return core.Config{
		Significance:        25,
		MinDistinct:         5,
		SimilarityThreshold: 1.5,
		MaxDepth:            6,
		MaxIterations:       40,
		FixedSignificance:   true,
		Seed:                seed,
		KeepTrees:           true,
	}
}

// subSeed derives the seed of one input role from the run seed, so each
// role draws from its own stream and changing one never perturbs another.
func subSeed(seed uint64, role string) uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d/%s", seed, role)
	if s := h.Sum64(); s != 0 {
		return s
	}
	return 1
}

func newRand(seed uint64, role string) *rand.Rand {
	s := subSeed(seed, role)
	return rand.New(rand.NewPCG(s, s^0x9e3779b97f4a7c15))
}

// poissonDues returns the due times of a Poisson arrival process at rate
// per second over window, as offsets from the window's start.
func poissonDues(rng *rand.Rand, rate float64, window time.Duration) []time.Duration {
	var out []time.Duration
	t := 0.0
	for {
		t += rng.ExpFloat64() / rate
		d := time.Duration(t * float64(time.Second))
		if d >= window {
			return out
		}
		out = append(out, d)
	}
}

// uniformDues returns n due times spread over window as the sorted
// arrival times of a Poisson process conditioned on n arrivals: the same
// gaps' distribution as poissonDues, with a count that does not vary by
// seed.
func uniformDues(rng *rand.Rand, n int, window time.Duration) []time.Duration {
	out := make([]time.Duration, n)
	for i := range out {
		out[i] = time.Duration(rng.Int64N(int64(window)))
	}
	slices.Sort(out)
	return out
}

// request is one pre-encoded request of a traffic class. Bodies are
// encoded during set-up, so the generator does no encoding while the
// window is open.
type request struct {
	due   time.Duration // offset from the window start; 0 in a closed loop
	body  []byte
	items []int // indices of the request's sequences in the class's payload pool
}

func classifyBody(model string, seqs []string) []byte {
	req := server.ClassifyRequest{Model: model}
	if len(seqs) == 1 {
		req.Sequence = seqs[0]
	} else {
		req.Sequences = seqs
	}
	return mustJSON(req)
}

func ingestBody(seqs []string) []byte {
	req := server.IngestRequest{}
	if len(seqs) == 1 {
		req.Sequence = seqs[0]
	} else {
		req.Sequences = seqs
	}
	return mustJSON(req)
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // only plain structs of strings are encoded
	}
	return b
}

// The request mix of the repository's pinned load scenarios,
// benchmarks/scenarios/smoke.json and ingest-smoke.json: a fifth of the
// arrivals are batches of 4, 16 or 64 sequences, weighted .5, .35 and .15;
// the rest carry one sequence.
const mixBatchShare = 0.2

var mixBatchSizes = []struct {
	size   int
	weight float64
}{{4, 0.5}, {16, 0.35}, {64, 0.15}}

// requestSize draws one arrival's sequence count from the pinned mix, as
// the scenarios' schedules do.
func requestSize(rng *rand.Rand) int {
	if rng.Float64() >= mixBatchShare {
		return 1
	}
	x := rng.Float64()
	for _, b := range mixBatchSizes {
		if x -= b.weight; x < 0 {
			return b.size
		}
	}
	return mixBatchSizes[len(mixBatchSizes)-1].size
}

// mixedSchedule builds an open-loop classify schedule: Poisson arrivals at
// rate, each sized by the pinned mix, drawn from a payload pool of
// poolSize sequences.
func mixedSchedule(rng *rand.Rand, rate float64, window time.Duration, poolSize int, body func(items []int) []byte) []request {
	dues := poissonDues(rng, rate, window)
	out := make([]request, len(dues))
	for i, d := range dues {
		items := make([]int, requestSize(rng))
		for j := range items {
			items[j] = rng.IntN(poolSize)
		}
		out[i] = request{due: d, body: body(items), items: items}
	}
	return out
}

// fingerprint hashes a run's schedule and payloads. Two runs printing the
// same fingerprint replayed the same inputs.
type fingerprint struct{ h hash.Hash }

func newFingerprint(workload string, seed uint64) *fingerprint {
	f := &fingerprint{sha256.New()}
	fmt.Fprintf(f.h, "%s/%d\n", workload, seed)
	return f
}

func (f *fingerprint) requests(class string, reqs []request) {
	f.h.Write([]byte(class))
	var b [8]byte
	for _, r := range reqs {
		binary.LittleEndian.PutUint64(b[:], uint64(r.due))
		f.h.Write(b[:])
		f.h.Write(r.body)
	}
}

func (f *fingerprint) strings(class string, ss []string) {
	f.h.Write([]byte(class))
	for _, s := range ss {
		f.h.Write([]byte(s))
		f.h.Write([]byte{0})
	}
}

func (f *fingerprint) sum() string { return hex.EncodeToString(f.h.Sum(nil)[:12]) }

// commit returns the VCS revision the binary was built from, when the
// build could see one.
func commit() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", false
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	if dirty {
		rev += "-dirty"
	}
	return rev
}

// sourceDigest hashes the program's Go sources under the working directory
// (the checkout root), identifying the code measured even in a checkout
// that is not a git repository.
func sourceDigest() string {
	var files []string
	filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && path != "." && (strings.HasPrefix(d.Name(), ".") || path == "perfbench") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || path == "go.mod") && !strings.HasSuffix(path, "_test.go") {
			files = append(files, path)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		fmt.Fprintf(h, "%s %d\n", f, len(b))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil)[:12])
}
