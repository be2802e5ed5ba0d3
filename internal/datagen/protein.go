package datagen

import (
	"fmt"
	"math/rand/v2"

	"cluseq/internal/seq"
)

// AminoAcids is the standard 20-letter amino-acid alphabet.
const AminoAcids = "ACDEFGHIKLMNPQRSTVWY"

// aminoAcidFreqs are the SWISS-PROT background residue frequencies (in
// percent), aligned with AminoAcids. Protein backgrounds are close to
// memoryless draws from this composition — which is exactly why the
// paper's likelihood-ratio similarity (conditional probability vs
// memoryless background) isolates family-specific *sequential* structure.
var aminoAcidFreqs = []float64{
	8.25, 1.37, 5.45, 6.75, 3.86, 7.07, 2.27, 5.96, 5.84, 9.66,
	2.42, 4.06, 4.70, 3.93, 5.53, 6.56, 5.34, 6.87, 1.08, 2.92,
}

// paperFamilies reproduces the ten family names and sizes the paper's
// Table 3 reports from its 8000-protein SWISS-PROT subset; the remaining
// twenty families (unnamed in the paper) are filled in with sizes in the
// stated 140–900 range so the totals match.
var paperFamilies = []struct {
	Name string
	Size int
}{
	{"ig", 884}, {"pkinase", 725}, {"globin", 681}, {"7tm_1", 515},
	{"homeobox", 383}, {"efhand", 320}, {"RuBisCO_large", 311},
	{"gluts", 144}, {"actin", 142}, {"rrm", 141},
	// 20 filler families summing to 8000 − 4246 = 3754.
	{"fam11", 257}, {"fam12", 268}, {"fam13", 255}, {"fam14", 243},
	{"fam15", 231}, {"fam16", 220}, {"fam17", 209}, {"fam18", 198},
	{"fam19", 188}, {"fam20", 179}, {"fam21", 171}, {"fam22", 164},
	{"fam23", 158}, {"fam24", 153}, {"fam25", 149}, {"fam26", 146},
	{"fam27", 143}, {"fam28", 141}, {"fam29", 141}, {"fam30", 140},
}

// ProteinConfig parameterizes the simulated protein database.
type ProteinConfig struct {
	// Scale multiplies every family size; 1.0 yields the paper's 8000
	// sequences across 30 families. Default 1.0.
	Scale float64
	// MinLength/MaxLength bound the simulated protein lengths.
	// Defaults 100 and 400.
	MinLength, MaxLength int
	// MotifsPerFamily is how many conserved signature motifs (domains)
	// each family carries — the "conserved protein regions" of the
	// paper's introduction. Default 2.
	MotifsPerFamily int
	// MotifLength is each motif's length. Default 24: domain-scale
	// conserved regions, long enough to anchor a family against the
	// i.i.d. background. Default 24.
	MotifLength int
	// MutationRate is the per-position probability that a motif symbol is
	// substituted when planted into a member. Default 0.18 — conserved
	// regions in real families are similar, not identical, which is what
	// separates probabilistic matching (CLUSEQ) from exact block matching
	// (EDBO) in Table 2.
	MutationRate float64
	// FamilyBias is the probability that a non-motif residue is emitted
	// by the family-specific source instead of the shared background.
	// It controls how much *global* compositional signal families carry:
	// near zero, only local motifs separate families (global-alignment
	// methods fail, as the paper reports for ED); near one, families are
	// globally distinct sources. Default 0.3 — a noticeable composition
	// signature, as real protein families have, while leaving global
	// alignment largely uninformative.
	FamilyBias float64
	Seed       uint64 // default 2
}

func (c ProteinConfig) withDefaults() ProteinConfig {
	if c.Scale == 0 {
		c.Scale = 1
	}
	if c.MinLength == 0 {
		c.MinLength = 100
	}
	if c.MaxLength == 0 {
		c.MaxLength = 400
	}
	if c.MotifsPerFamily == 0 {
		c.MotifsPerFamily = 2
	}
	if c.MotifLength == 0 {
		c.MotifLength = 24
	}
	if c.MutationRate == 0 {
		c.MutationRate = 0.18
	}
	if c.FamilyBias == 0 {
		c.FamilyBias = 0.3
	}
	if c.Seed == 0 {
		c.Seed = 2
	}
	return c
}

// ProteinDB simulates the paper's §6.1 protein workload: 30 families over
// a *shared* background residue source, where family identity lives in
// (a) a handful of conserved motifs planted at loosely conserved
// positions and (b) a mild family-specific compositional bias
// (FamilyBias). This reproduces the structure the paper's Table 2 turns
// on: the signal is *local and sequential*, so global-alignment edit
// distance fails while methods sensitive to local segments (CLUSEQ, EDBO)
// succeed, and composition-only methods (q-gram) land in between.
func ProteinDB(cfg ProteinConfig) (*seq.Database, error) {
	cfg = cfg.withDefaults()
	if cfg.Scale < 0 || cfg.MinLength < 10 || cfg.MaxLength < cfg.MinLength {
		return nil, fmt.Errorf("datagen: invalid protein config %+v", cfg)
	}
	if cfg.FamilyBias < 0 || cfg.FamilyBias > 1 {
		return nil, fmt.Errorf("datagen: FamilyBias %v outside [0,1]", cfg.FamilyBias)
	}
	alphabet := seq.MustAlphabet(AminoAcids)
	db := seq.NewDatabase(alphabet)
	rng := rand.New(rand.NewPCG(cfg.Seed, cfg.Seed^0xA5A5A5A5))
	n := alphabet.Size()

	// The background is memoryless: i.i.d. draws from the SWISS-PROT
	// residue composition, shared by every family, so neither global
	// alignment nor composition separates families — only the motifs and
	// the mild FamilyBias carry family identity.
	cumFreq := make([]float64, n)
	total := 0.0
	for i, f := range aminoAcidFreqs {
		total += f
		cumFreq[i] = total
	}
	drawBackground := func(rng *rand.Rand) seq.Symbol {
		u := rng.Float64() * total
		for i, c := range cumFreq {
			if u < c {
				return seq.Symbol(i)
			}
		}
		return seq.Symbol(n - 1)
	}

	id := 0
	for famIdx, fam := range paperFamilies {
		size := int(float64(fam.Size)*cfg.Scale + 0.5)
		if size < 1 {
			size = 1
		}
		famSrc := NewClusterSource(famIdx, cfg.Seed^0x70726f74, n, 2)
		// Family-wide conserved motifs.
		motifs := make([][]seq.Symbol, cfg.MotifsPerFamily)
		for m := range motifs {
			motifs[m] = make([]seq.Symbol, cfg.MotifLength)
			for i := range motifs[m] {
				motifs[m][i] = seq.Symbol(rng.IntN(n))
			}
		}
		for s := 0; s < size; s++ {
			length := cfg.MinLength + rng.IntN(cfg.MaxLength-cfg.MinLength+1)
			// Background residues with a mild family bias.
			syms := make([]seq.Symbol, 0, length)
			for len(syms) < length {
				if rng.Float64() < cfg.FamilyBias {
					syms = append(syms, famSrc.Next(syms, rng))
				} else {
					syms = append(syms, drawBackground(rng))
				}
			}
			// Plant each motif at an independent random position (real
			// domains shuffle freely between homologs — this is exactly
			// the local-vs-global distinction Table 2 exercises: global
			// alignment cannot line the domains up, local methods can),
			// with point mutations.
			order := rng.Perm(cfg.MotifsPerFamily)
			for m, motif := range motifs {
				span := length / cfg.MotifsPerFamily
				pos := order[m] * span // domains shuffle order between homologs
				if room := span - len(motif); room > 0 {
					pos += rng.IntN(room)
				}
				if pos+len(motif) > length {
					pos = length - len(motif)
				}
				for i, sym := range motif {
					if rng.Float64() < cfg.MutationRate {
						sym = seq.Symbol(rng.IntN(n))
					}
					syms[pos+i] = sym
				}
			}
			db.Add(&seq.Sequence{
				ID:      fmt.Sprintf("prot%05d", id),
				Label:   fam.Name,
				Symbols: syms,
			})
			id++
		}
	}
	rng.Shuffle(db.Len(), func(i, j int) {
		db.Sequences[i], db.Sequences[j] = db.Sequences[j], db.Sequences[i]
	})
	return db, nil
}

// PaperFamilyNames returns the 30 family names in Table 3 order (the ten
// the paper names first).
func PaperFamilyNames() []string {
	out := make([]string, len(paperFamilies))
	for i, f := range paperFamilies {
		out[i] = f.Name
	}
	return out
}
