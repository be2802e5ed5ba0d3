package eval

import (
	"math"
	"math/rand/v2"
	"testing"
)

func TestHungarianSmall(t *testing.T) {
	cost := [][]float64{
		{4, 1, 3},
		{2, 0, 5},
		{3, 2, 2},
	}
	assign, err := Hungarian(cost)
	if err != nil {
		t.Fatal(err)
	}
	// Optimal: row0→col1 (1), row1→col0 (2), row2→col2 (2) = 5.
	total := 0.0
	seen := map[int]bool{}
	for i, j := range assign {
		total += cost[i][j]
		if seen[j] {
			t.Fatalf("column %d assigned twice: %v", j, assign)
		}
		seen[j] = true
	}
	if total != 5 {
		t.Fatalf("total cost = %v (assign %v), want 5", total, assign)
	}
}

func TestHungarianRectangular(t *testing.T) {
	cost := [][]float64{
		{10, 1, 10, 10},
		{10, 10, 1, 10},
	}
	assign, err := Hungarian(cost)
	if err != nil {
		t.Fatal(err)
	}
	if assign[0] != 1 || assign[1] != 2 {
		t.Fatalf("assign = %v, want [1 2]", assign)
	}
}

func TestHungarianErrors(t *testing.T) {
	if _, err := Hungarian([][]float64{{1, 2}, {3}}); err == nil {
		t.Error("ragged matrix should fail")
	}
	if _, err := Hungarian([][]float64{{1}, {2}}); err == nil {
		t.Error("rows > cols should fail")
	}
	if _, err := Hungarian([][]float64{{math.NaN()}}); err == nil {
		t.Error("NaN cost should fail")
	}
	if got, err := Hungarian(nil); err != nil || got != nil {
		t.Error("empty matrix should return nil, nil")
	}
}

// TestHungarianMatchesBruteForce compares against exhaustive search on
// random square matrices up to 6×6.
func TestHungarianMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewPCG(10, 20))
	var bruteBest float64
	var permute func(cost [][]float64, used []bool, row int, acc float64)
	permute = func(cost [][]float64, used []bool, row int, acc float64) {
		if acc >= bruteBest {
			return
		}
		if row == len(cost) {
			bruteBest = acc
			return
		}
		for j := range used {
			if !used[j] {
				used[j] = true
				permute(cost, used, row+1, acc+cost[row][j])
				used[j] = false
			}
		}
	}
	for trial := 0; trial < 30; trial++ {
		n := 2 + rng.IntN(5)
		cost := make([][]float64, n)
		for i := range cost {
			cost[i] = make([]float64, n)
			for j := range cost[i] {
				cost[i][j] = float64(rng.IntN(50))
			}
		}
		bruteBest = math.Inf(1)
		permute(cost, make([]bool, n), 0, 0)
		assign, err := Hungarian(cost)
		if err != nil {
			t.Fatal(err)
		}
		total := 0.0
		for i, j := range assign {
			total += cost[i][j]
		}
		if math.Abs(total-bruteBest) > 1e-9 {
			t.Fatalf("trial %d: Hungarian total %v, brute force %v (cost %v)", trial, total, bruteBest, cost)
		}
	}
}

func TestMaxAssignmentTallMatrix(t *testing.T) {
	// More rows (clusters) than columns (labels): extra rows unassigned.
	w := [][]float64{
		{5, 0},
		{0, 7},
		{1, 1},
	}
	assign, err := MaxAssignment(w)
	if err != nil {
		t.Fatal(err)
	}
	if assign[0] != 0 || assign[1] != 1 || assign[2] != -1 {
		t.Fatalf("assign = %v, want [0 1 -1]", assign)
	}
}

func TestFromAssignmentsRoundTrip(t *testing.T) {
	assign := []int{0, 1, 0, -1, 2}
	c := FromAssignments(assign)
	if c.N != 5 || len(c.Members) != 3 {
		t.Fatalf("clustering = %+v", c)
	}
	got := c.Assignments()
	for i := range assign {
		if got[i] != assign[i] {
			t.Fatalf("Assignments = %v, want %v", got, assign)
		}
	}
}

func TestValidate(t *testing.T) {
	c := Clustering{N: 2, Members: [][]int{{0, 5}}}
	if err := c.Validate(); err == nil {
		t.Fatal("out-of-range member should fail validation")
	}
}

func TestEvaluatePerfectClustering(t *testing.T) {
	labels := []string{"x", "x", "y", "y", "y"}
	c := FromAssignments([]int{0, 0, 1, 1, 1})
	rep, err := Evaluate(c, labels)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Accuracy != 1 {
		t.Fatalf("Accuracy = %v, want 1", rep.Accuracy)
	}
	if rep.MacroPrecision != 1 || rep.MacroRecall != 1 {
		t.Fatalf("macro P/R = %v/%v, want 1/1", rep.MacroPrecision, rep.MacroRecall)
	}
	if rep.NumClusters != 2 || rep.Unclustered != 0 {
		t.Fatalf("report = %+v", rep)
	}
	for _, pr := range rep.PerLabel {
		if pr.Precision != 1 || pr.Recall != 1 {
			t.Fatalf("per-label %+v", pr)
		}
	}
}

func TestEvaluatePermutationInvariant(t *testing.T) {
	// Renumbering clusters must not change any quality measure.
	labels := []string{"x", "x", "y", "y", "y", "z"}
	c1 := FromAssignments([]int{0, 0, 1, 1, 1, 2})
	c2 := FromAssignments([]int{2, 2, 0, 0, 0, 1})
	r1, err := Evaluate(c1, labels)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Evaluate(c2, labels)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Accuracy != r2.Accuracy || r1.MacroPrecision != r2.MacroPrecision {
		t.Fatalf("not permutation invariant: %+v vs %+v", r1, r2)
	}
	if r1.Accuracy != 1 {
		t.Fatalf("Accuracy = %v, want 1", r1.Accuracy)
	}
}

func TestEvaluateImperfect(t *testing.T) {
	// Family x: sequences 0,1,2; family y: 3,4,5. Cluster 0 = {0,1,3},
	// cluster 1 = {4,5}; sequence 2 unclustered.
	labels := []string{"x", "x", "x", "y", "y", "y"}
	c := Clustering{N: 6, Members: [][]int{{0, 1, 3}, {4, 5}}}
	rep, err := Evaluate(c, labels)
	if err != nil {
		t.Fatal(err)
	}
	// Matching: cluster0→x (overlap 2), cluster1→y (overlap 2);
	// accuracy = 4/6.
	if math.Abs(rep.Accuracy-4.0/6) > 1e-12 {
		t.Fatalf("Accuracy = %v, want 2/3", rep.Accuracy)
	}
	if rep.Unclustered != 1 {
		t.Fatalf("Unclustered = %d, want 1", rep.Unclustered)
	}
	var x, y PR
	for _, pr := range rep.PerLabel {
		switch pr.Label {
		case "x":
			x = pr
		case "y":
			y = pr
		}
	}
	if math.Abs(x.Precision-2.0/3) > 1e-12 || math.Abs(x.Recall-2.0/3) > 1e-12 {
		t.Fatalf("x P/R = %v/%v, want 2/3 each", x.Precision, x.Recall)
	}
	if y.Precision != 1 || math.Abs(y.Recall-2.0/3) > 1e-12 {
		t.Fatalf("y P/R = %v/%v, want 1 and 2/3", y.Precision, y.Recall)
	}
}

func TestEvaluateOutliersExcluded(t *testing.T) {
	// Unlabeled sequences (planted outliers) must not hurt accuracy even
	// when clustered.
	labels := []string{"x", "x", "", ""}
	c := Clustering{N: 4, Members: [][]int{{0, 1, 2, 3}}}
	rep, err := Evaluate(c, labels)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Accuracy != 1 {
		t.Fatalf("Accuracy = %v, want 1 (outliers excluded)", rep.Accuracy)
	}
	pr := rep.PerLabel[0]
	if pr.Precision != 1 || pr.Assigned != 2 {
		t.Fatalf("precision should count labeled members only: %+v", pr)
	}
}

func TestEvaluateOverlappingClusters(t *testing.T) {
	// A sequence may belong to several clusters (CLUSEQ's model); it is
	// correct when it appears in its family's matched cluster.
	labels := []string{"x", "x", "y", "y"}
	c := Clustering{N: 4, Members: [][]int{{0, 1, 2}, {2, 3}}}
	rep, err := Evaluate(c, labels)
	if err != nil {
		t.Fatal(err)
	}
	// cluster0→x, cluster1→y: all four correct despite the overlap on 2.
	if rep.Accuracy != 1 {
		t.Fatalf("Accuracy = %v, want 1", rep.Accuracy)
	}
}

func TestEvaluateErrors(t *testing.T) {
	if _, err := Evaluate(Clustering{N: 2}, []string{"x"}); err == nil {
		t.Error("length mismatch should fail")
	}
	if _, err := Evaluate(Clustering{N: 1, Members: [][]int{{3}}}, []string{"x"}); err == nil {
		t.Error("invalid clustering should fail")
	}
}

func TestEvaluateNoLabelsNoClusters(t *testing.T) {
	rep, err := Evaluate(Clustering{N: 2}, []string{"", ""})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Accuracy != 0 || rep.NumClusters != 0 {
		t.Fatalf("degenerate report = %+v", rep)
	}
}

func TestF1(t *testing.T) {
	pr := PR{Precision: 0.5, Recall: 1}
	if got := pr.F1(); math.Abs(got-2.0/3) > 1e-12 {
		t.Fatalf("F1 = %v, want 2/3", got)
	}
	if got := (PR{}).F1(); got != 0 {
		t.Fatalf("zero F1 = %v", got)
	}
	perfect := PR{Precision: 1, Recall: 1}
	if got := perfect.F1(); got != 1 {
		t.Fatalf("perfect F1 = %v", got)
	}
}
