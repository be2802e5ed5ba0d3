package baseline

import (
	"math/rand/v2"
	"strings"
	"testing"

	"cluseq/internal/distance"
	"cluseq/internal/eval"
	"cluseq/internal/seq"
)

// twoBlobs returns a distance matrix for two well-separated groups of
// points on a line: indices [0,m) near 0, [m,2m) near 100.
func twoBlobs(m int) [][]float64 {
	n := 2 * m
	pos := make([]float64, n)
	for i := 0; i < m; i++ {
		pos[i] = float64(i)         // 0..m-1
		pos[m+i] = 100 + float64(i) // 100..
	}
	d := make([][]float64, n)
	for i := range d {
		d[i] = make([]float64, n)
		for j := range d[i] {
			v := pos[i] - pos[j]
			if v < 0 {
				v = -v
			}
			d[i][j] = v
		}
	}
	return d
}

func sameSide(assign []int, m int) bool {
	for i := 1; i < m; i++ {
		if assign[i] != assign[0] {
			return false
		}
	}
	for i := m + 1; i < 2*m; i++ {
		if assign[i] != assign[m] {
			return false
		}
	}
	return assign[0] != assign[m]
}

func TestKMedoidsSeparatesBlobs(t *testing.T) {
	d := twoBlobs(8)
	assign, err := KMedoids(d, 2, 20, rand.New(rand.NewPCG(1, 2)))
	if err != nil {
		t.Fatal(err)
	}
	if !sameSide(assign, 8) {
		t.Fatalf("k-medoids failed to separate blobs: %v", assign)
	}
}

func TestKMedoidsErrors(t *testing.T) {
	d := twoBlobs(2)
	if _, err := KMedoids(d, 0, 5, rand.New(rand.NewPCG(1, 1))); err == nil {
		t.Error("k=0 should fail")
	}
	if _, err := KMedoids(d, 5, 5, rand.New(rand.NewPCG(1, 1))); err == nil {
		t.Error("k>n should fail")
	}
}

func TestKMedoidsKEqualsN(t *testing.T) {
	d := twoBlobs(3)
	assign, err := KMedoids(d, 6, 10, rand.New(rand.NewPCG(3, 3)))
	if err != nil {
		t.Fatal(err)
	}
	seen := map[int]bool{}
	for _, a := range assign {
		seen[a] = true
	}
	if len(seen) != 6 {
		t.Fatalf("k=n should give singletons, got %v", assign)
	}
}

func TestDistanceMatrixParallelMatchesSerial(t *testing.T) {
	f := func(i, j int) float64 { return float64((i+1)*(j+1)%17) + float64(i+j) }
	m1 := DistanceMatrix(25, f, 1)
	m8 := DistanceMatrix(25, f, 8)
	for i := range m1 {
		for j := range m1[i] {
			if m1[i][j] != m8[i][j] {
				t.Fatalf("parallel mismatch at (%d,%d)", i, j)
			}
			if m1[i][j] != m1[j][i] {
				t.Fatalf("asymmetric at (%d,%d)", i, j)
			}
		}
		if m1[i][i] != 0 {
			t.Fatalf("diagonal not zero at %d", i)
		}
	}
}

// langDB builds a small two-family database with very different sequential
// structure: family A alternates ab, family B repeats ccd-like blocks.
func langDB(t *testing.T, perFamily, length int, rng *rand.Rand) *seq.Database {
	t.Helper()
	a := seq.MustAlphabet("abcd")
	db := seq.NewDatabase(a)
	for i := 0; i < perFamily; i++ {
		var sb strings.Builder
		for sb.Len() < length {
			if rng.Float64() < 0.9 {
				sb.WriteString("ab")
			} else {
				sb.WriteString("ad")
			}
		}
		if err := db.AddString("", "A", sb.String()[:length]); err != nil {
			t.Fatal(err)
		}
		sb.Reset()
		for sb.Len() < length {
			if rng.Float64() < 0.9 {
				sb.WriteString("ccd")
			} else {
				sb.WriteString("cd")
			}
		}
		if err := db.AddString("", "B", sb.String()[:length]); err != nil {
			t.Fatal(err)
		}
	}
	for i, s := range db.Sequences {
		s.ID = string(rune('a'+i%26)) + string(rune('0'+i/26))
	}
	return db
}

func labelsOf(db *seq.Database) []string {
	out := make([]string, db.Len())
	for i, s := range db.Sequences {
		out[i] = s.Label
	}
	return out
}

func TestEditDistanceClusteringOnStructuredData(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 8))
	db := langDB(t, 10, 40, rng)
	d := DistanceMatrix(db.Len(), func(i, j int) float64 {
		return distance.NormalizedLevenshtein(db.Sequences[i].Symbols, db.Sequences[j].Symbols)
	}, 0)
	assign, err := KMedoids(d, 2, 20, rng)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := eval.Evaluate(eval.FromAssignments(assign), labelsOf(db))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Accuracy < 0.9 {
		t.Fatalf("ED clustering accuracy = %v on trivially separable data", rep.Accuracy)
	}
}

func TestHMMClustersOnStructuredData(t *testing.T) {
	rng := rand.New(rand.NewPCG(9, 10))
	db := langDB(t, 8, 60, rng)
	assign, err := HMMClusters(db, 2, 3, 6, 10, rng)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := eval.Evaluate(eval.FromAssignments(assign), labelsOf(db))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Accuracy < 0.85 {
		t.Fatalf("HMM clustering accuracy = %v on trivially separable data", rep.Accuracy)
	}
}

func TestHMMClustersErrors(t *testing.T) {
	db := seq.NewDatabase(seq.MustAlphabet("ab"))
	db.AddString("s", "", "ab")
	if _, err := HMMClusters(db, 2, 2, 2, 2, rand.New(rand.NewPCG(1, 1))); err == nil {
		t.Error("k>n should fail")
	}
}

func TestQGramKMeansOnStructuredData(t *testing.T) {
	rng := rand.New(rand.NewPCG(11, 12))
	db := langDB(t, 10, 60, rng)
	assign, err := QGramKMeans(db, 2, 3, 30, rng)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := eval.Evaluate(eval.FromAssignments(assign), labelsOf(db))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Accuracy < 0.9 {
		t.Fatalf("q-gram clustering accuracy = %v on trivially separable data", rep.Accuracy)
	}
}

func TestQGramKMeansErrors(t *testing.T) {
	db := seq.NewDatabase(seq.MustAlphabet("ab"))
	db.AddString("s", "", "ab")
	if _, err := QGramKMeans(db, 0, 2, 5, rand.New(rand.NewPCG(1, 1))); err == nil {
		t.Error("k=0 should fail")
	}
}
