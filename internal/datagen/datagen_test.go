package datagen

import (
	"math/rand/v2"
	"strings"
	"testing"

	"cluseq/internal/pst"
	"cluseq/internal/seq"
)

func TestSyntheticDBShape(t *testing.T) {
	cfg := SyntheticConfig{
		NumSequences: 200, AvgLength: 50, AlphabetSize: 20,
		NumClusters: 4, OutlierFrac: 0.1, Seed: 7,
	}
	db, err := SyntheticDB(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if db.Len() != 200 {
		t.Fatalf("Len = %d, want 200", db.Len())
	}
	if db.Alphabet.Size() != 20 {
		t.Fatalf("alphabet = %d, want 20", db.Alphabet.Size())
	}
	if err := db.Validate(); err != nil {
		t.Fatal(err)
	}
	counts := db.LabelCounts()
	if len(counts) != 4 {
		t.Fatalf("labels = %v, want 4 clusters", counts)
	}
	labeled := 0
	for _, c := range counts {
		labeled += c
		if c < 40 || c > 50 {
			t.Fatalf("unbalanced cluster sizes: %v", counts)
		}
	}
	if got := db.Len() - labeled; got != 20 {
		t.Fatalf("outliers = %d, want 20 (10%%)", got)
	}
	avg := db.AverageLength()
	if avg < 35 || avg > 65 {
		t.Fatalf("average length = %v, want ≈ 50", avg)
	}
}

func TestSyntheticDBDeterministic(t *testing.T) {
	cfg := SyntheticConfig{NumSequences: 50, AvgLength: 30, AlphabetSize: 10, NumClusters: 3, Seed: 5}
	db1, err := SyntheticDB(cfg)
	if err != nil {
		t.Fatal(err)
	}
	db2, err := SyntheticDB(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range db1.Sequences {
		a, b := db1.Sequences[i], db2.Sequences[i]
		if a.ID != b.ID || a.Label != b.Label || len(a.Symbols) != len(b.Symbols) {
			t.Fatalf("sequence %d differs between runs", i)
		}
		for j := range a.Symbols {
			if a.Symbols[j] != b.Symbols[j] {
				t.Fatalf("sequence %d symbol %d differs", i, j)
			}
		}
	}
}

func TestSyntheticDBValidation(t *testing.T) {
	bad := []SyntheticConfig{
		{AlphabetSize: 1},
		{OutlierFrac: 1.5},
		{OutlierFrac: -0.1},
		{NumSequences: 5, NumClusters: 10},
		{AlphabetSize: 60000},
	}
	for i, cfg := range bad {
		if _, err := SyntheticDB(cfg); err == nil {
			t.Errorf("case %d (%+v): want error", i, cfg)
		}
	}
}

// TestClusterSourcesAreDistinguishable is the property the whole synthetic
// evaluation rests on: a PST trained on one cluster's sequences must score
// fresh sequences from the same cluster far above sequences from a
// different cluster or memoryless noise.
func TestClusterSourcesAreDistinguishable(t *testing.T) {
	const alpha, order = 12, 3
	rng := rand.New(rand.NewPCG(21, 22))
	srcA := NewClusterSource(0, 99, alpha, order)
	srcB := NewClusterSource(1, 99, alpha, order)

	tree := pst.MustNew(pst.Config{AlphabetSize: alpha, MaxDepth: 5, Significance: 5, PMin: 0.001})
	for i := 0; i < 30; i++ {
		tree.Insert(srcA.Generate(300, rng))
	}
	background := make([]float64, alpha)
	for i := range background {
		background[i] = 1 / float64(alpha)
	}

	same := tree.Similarity(srcA.Generate(200, rng), background).LogSim
	other := tree.Similarity(srcB.Generate(200, rng), background).LogSim
	noise := make([]seq.Symbol, 200)
	for i := range noise {
		noise[i] = seq.Symbol(rng.IntN(alpha))
	}
	random := tree.Similarity(noise, background).LogSim

	if same <= other {
		t.Fatalf("same-cluster similarity %v not above cross-cluster %v", same, other)
	}
	if same <= random {
		t.Fatalf("same-cluster similarity %v not above random %v", same, random)
	}
	if same < 10 {
		t.Fatalf("same-cluster log-similarity %v too weak for clustering", same)
	}
}

func TestProteinDBPaperShape(t *testing.T) {
	db, err := ProteinDB(ProteinConfig{Scale: 1})
	if err != nil {
		t.Fatal(err)
	}
	if db.Len() != 8000 {
		t.Fatalf("Len = %d, want 8000 (paper's subset size)", db.Len())
	}
	counts := db.LabelCounts()
	if len(counts) != 30 {
		t.Fatalf("families = %d, want 30", len(counts))
	}
	for name, c := range counts {
		if c < 140 || c > 900 {
			t.Fatalf("family %s size %d outside the paper's 140–900 range", name, c)
		}
	}
	// The ten named Table 3 families with their exact sizes.
	for _, probe := range []struct {
		name string
		size int
	}{{"ig", 884}, {"pkinase", 725}, {"rrm", 141}} {
		if counts[probe.name] != probe.size {
			t.Fatalf("family %s size = %d, want %d", probe.name, counts[probe.name], probe.size)
		}
	}
	if db.Alphabet.String() != AminoAcids {
		t.Fatalf("alphabet = %q", db.Alphabet.String())
	}
	for _, s := range db.Sequences[:100] {
		if len(s.Symbols) < 100 || len(s.Symbols) > 400 {
			t.Fatalf("sequence %s length %d outside [100,400]", s.ID, len(s.Symbols))
		}
	}
}

func TestProteinDBScaled(t *testing.T) {
	db, err := ProteinDB(ProteinConfig{Scale: 0.05, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	if db.Len() < 350 || db.Len() > 450 {
		t.Fatalf("scaled Len = %d, want ≈ 400", db.Len())
	}
	if len(db.LabelCounts()) != 30 {
		t.Fatal("scaling must preserve all 30 families")
	}
	if err := db.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestProteinDBValidation(t *testing.T) {
	if _, err := ProteinDB(ProteinConfig{MinLength: 5}); err == nil {
		t.Error("tiny MinLength should fail")
	}
	if _, err := ProteinDB(ProteinConfig{MinLength: 200, MaxLength: 100}); err == nil {
		t.Error("Max < Min should fail")
	}
}

func TestProteinFamiliesShareMotifs(t *testing.T) {
	// Two members of one family must share at least one exact motif-length
	// segment (conservation), which unrelated families almost surely
	// don't at motif length 8 over a 20-symbol alphabet.
	db, err := ProteinDB(ProteinConfig{Scale: 0.02, Seed: 9, MutationRate: 1e-9})
	if err != nil {
		t.Fatal(err)
	}
	byFam := map[string][]*seq.Sequence{}
	for _, s := range db.Sequences {
		byFam[s.Label] = append(byFam[s.Label], s)
	}
	fam := byFam["ig"]
	if len(fam) < 2 {
		t.Skip("scaled family too small")
	}
	a, b := fam[0], fam[1]
	grams := map[string]bool{}
	for i := 0; i+8 <= len(a.Symbols); i++ {
		grams[db.Alphabet.Decode(a.Symbols[i:i+8])] = true
	}
	shared := 0
	for i := 0; i+8 <= len(b.Symbols); i++ {
		if grams[db.Alphabet.Decode(b.Symbols[i:i+8])] {
			shared++
		}
	}
	if shared == 0 {
		t.Fatal("family members share no conserved 8-mer; motif planting broken")
	}
}

func TestPaperFamilyHelpers(t *testing.T) {
	names := PaperFamilyNames()
	if len(names) != 30 || names[0] != "ig" {
		t.Fatalf("PaperFamilyNames = %v", names[:3])
	}
}

func TestLanguageDBShape(t *testing.T) {
	db, err := LanguageDB(LanguageConfig{SentencesPerLanguage: 50, NoiseSentences: 10, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	if db.Len() != 160 {
		t.Fatalf("Len = %d, want 160", db.Len())
	}
	counts := db.LabelCounts()
	for _, lang := range LanguageNames {
		if counts[lang] != 50 {
			t.Fatalf("%s count = %d, want 50", lang, counts[lang])
		}
	}
	unlabeled := 0
	for _, s := range db.Sequences {
		if s.Label == "" {
			unlabeled++
		}
		if len(s.Symbols) < 40 || len(s.Symbols) > 120 {
			t.Fatalf("sentence length %d outside [40,120]", len(s.Symbols))
		}
	}
	if unlabeled != 10 {
		t.Fatalf("noise = %d, want 10", unlabeled)
	}
	if err := db.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestLanguageStatisticsDiffer(t *testing.T) {
	// The paper's named markers: "th" is frequent in English; Japanese
	// alternates vowels and consonants far more strictly than English.
	db, err := LanguageDB(LanguageConfig{SentencesPerLanguage: 100, NoiseSentences: 0, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	thRate := map[string]float64{}
	altRate := map[string]float64{}
	chars := map[string]float64{}
	isVowel := func(r rune) bool { return strings.ContainsRune("aeiou", r) }
	for _, s := range db.Sequences {
		text := db.Alphabet.Decode(s.Symbols)
		for i := 0; i+1 < len(text); i++ {
			if text[i] == 't' && text[i+1] == 'h' {
				thRate[s.Label]++
			}
			if isVowel(rune(text[i])) != isVowel(rune(text[i+1])) {
				altRate[s.Label]++
			}
		}
		chars[s.Label] += float64(len(text))
	}
	for l := range thRate {
		thRate[l] /= chars[l]
	}
	for l := range altRate {
		altRate[l] /= chars[l]
	}
	if thRate["english"] <= 2*thRate["japanese"] {
		t.Fatalf("English th-rate %v not ≫ Japanese %v", thRate["english"], thRate["japanese"])
	}
	if altRate["japanese"] <= altRate["english"] {
		t.Fatalf("Japanese CV alternation %v not above English %v", altRate["japanese"], altRate["english"])
	}
}

func TestTraceDBShape(t *testing.T) {
	db, err := TraceDB(TraceConfig{TracesPerProfile: 20, Anomalies: 5, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if db.Len() != 4*20+5 {
		t.Fatalf("Len = %d, want 85", db.Len())
	}
	if db.Alphabet.Size() != len(Syscalls) {
		t.Fatalf("alphabet = %d, want %d syscalls", db.Alphabet.Size(), len(Syscalls))
	}
	counts := db.LabelCounts()
	for _, p := range traceProfiles {
		if counts[p.Name] != 20 {
			t.Fatalf("profile %s count = %d, want 20", p.Name, counts[p.Name])
		}
	}
	unlabeled := 0
	for _, s := range db.Sequences {
		if s.Label == "" {
			unlabeled++
		}
		if len(s.Symbols) < 60 || len(s.Symbols) > 200 {
			t.Fatalf("trace length %d outside [60,200]", len(s.Symbols))
		}
	}
	if unlabeled != 5 {
		t.Fatalf("anomalies = %d, want 5", unlabeled)
	}
	if err := db.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestTraceDBValidation(t *testing.T) {
	if _, err := TraceDB(TraceConfig{MinCalls: 5}); err == nil {
		t.Error("tiny MinCalls should fail")
	}
	if _, err := TraceDB(TraceConfig{MinCalls: 100, MaxCalls: 50}); err == nil {
		t.Error("Max < Min should fail")
	}
}

func TestTraceProfilesFollowTheirChunks(t *testing.T) {
	// A fileserver trace must be dominated by file syscalls, a webserver
	// trace by socket syscalls.
	db, err := TraceDB(TraceConfig{TracesPerProfile: 10, Anomalies: 1, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	rate := func(s *seq.Sequence, names ...string) float64 {
		set := map[string]bool{}
		for _, n := range names {
			set[n] = true
		}
		hits := 0
		for _, sym := range s.Symbols {
			if set[SyscallName(sym)] {
				hits++
			}
		}
		return float64(hits) / float64(len(s.Symbols))
	}
	for _, s := range db.Sequences {
		switch s.Label {
		case "fileserver":
			if rate(s, "open", "read", "write", "close", "stat", "mmap") < 0.8 {
				t.Fatalf("fileserver trace not file-dominated: %s", DecodeTrace(s.Symbols[:20]))
			}
		case "webserver":
			if rate(s, "accept", "recv", "send", "close", "poll", "select", "futex") < 0.8 {
				t.Fatalf("webserver trace not socket-dominated: %s", DecodeTrace(s.Symbols[:20]))
			}
		}
	}
}

func TestSyscallNameAndDecode(t *testing.T) {
	if SyscallName(0) != "open" {
		t.Fatalf("SyscallName(0) = %s", SyscallName(0))
	}
	if got := SyscallName(seq.Symbol(5000)); got != "sys5000" {
		t.Fatalf("out-of-range syscall = %s", got)
	}
	if got := DecodeTrace([]seq.Symbol{0, 1, 3}); got != "open read close" {
		t.Fatalf("DecodeTrace = %q", got)
	}
}

func TestLanguageDBValidation(t *testing.T) {
	if _, err := LanguageDB(LanguageConfig{MinLetters: 2, MaxLetters: 1}); err == nil {
		t.Error("invalid lengths should fail")
	}
}
