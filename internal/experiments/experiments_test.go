package experiments

import (
	"strings"
	"testing"
	"time"
)

// The experiment runners are exercised at ScaleTiny: the assertions target
// the paper's qualitative shapes (who wins, what converges, what stays
// flat), not absolute numbers.

func TestParseScale(t *testing.T) {
	for in, want := range map[string]Scale{
		"tiny": ScaleTiny, "small": ScaleSmall, "paper": ScalePaper,
		"PAPER": ScalePaper, "full": ScalePaper,
	} {
		got, err := ParseScale(in)
		if err != nil || got != want {
			t.Errorf("ParseScale(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	if _, err := ParseScale("huge"); err == nil {
		t.Error("ParseScale should reject unknown scales")
	}
	if ScaleTiny.String() != "tiny" || ScalePaper.String() != "paper" {
		t.Error("Scale.String broken")
	}
	if Scale(99).String() == "" {
		t.Error("unknown Scale must still render")
	}
}

func TestRunTable2Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("runs all five models; skipped with -short")
	}
	res, err := RunTable2(ScaleTiny, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 5 {
		t.Fatalf("got %d rows, want 5 models", len(res.Rows))
	}
	cluseq, ok := res.Row("CLUSEQ")
	if !ok {
		t.Fatal("no CLUSEQ row")
	}
	ed, ok := res.Row("ED")
	if !ok {
		t.Fatal("no ED row")
	}
	// The paper's headline: CLUSEQ beats the edit distance decisively.
	if cluseq.Accuracy <= ed.Accuracy {
		t.Fatalf("CLUSEQ (%.2f) must beat ED (%.2f)", cluseq.Accuracy, ed.Accuracy)
	}
	if cluseq.Accuracy < 0.5 {
		t.Fatalf("CLUSEQ accuracy %.2f too low on the protein workload", cluseq.Accuracy)
	}
	// EDBO must cost more time than CLUSEQ (the paper's 13754s vs 144s;
	// the factor shrinks at tiny scale but the direction must hold).
	edbo, _ := res.Row("EDBO")
	if edbo.Elapsed <= cluseq.Elapsed {
		t.Fatalf("EDBO (%v) should be slower than CLUSEQ (%v)", edbo.Elapsed, cluseq.Elapsed)
	}
	if !strings.Contains(res.String(), "CLUSEQ") {
		t.Fatal("String() must render the model column")
	}
}

func TestRunTable3Shape(t *testing.T) {
	res, err := RunTable3(ScaleTiny, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 10 {
		t.Fatalf("got %d rows, want the 10 named families", len(res.Rows))
	}
	if res.Rows[0].Family != "ig" {
		t.Fatalf("first family = %s, want ig (paper order)", res.Rows[0].Family)
	}
	// Sizes must be sorted descending like the paper's table.
	for i := 1; i < len(res.Rows); i++ {
		if res.Rows[i].Size > res.Rows[i-1].Size {
			t.Fatalf("family sizes out of order at %d: %+v", i, res.Rows)
		}
	}
	// The large families must cluster reasonably even at tiny scale.
	for _, r := range res.Rows[:3] {
		if r.Recall < 0.5 {
			t.Fatalf("family %s recall %.2f too low", r.Family, r.Recall)
		}
	}
	_ = res.String()
}

func TestRunTable4Shape(t *testing.T) {
	res, err := RunTable4(ScaleTiny, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("got %d rows, want 3 languages", len(res.Rows))
	}
	for _, lang := range []string{"english", "chinese", "japanese"} {
		row, ok := res.Row(lang)
		if !ok {
			t.Fatalf("missing language %s", lang)
		}
		if row.Precision < 0.6 || row.Recall < 0.6 {
			t.Fatalf("%s P/R = %.2f/%.2f, want ≥ 0.6 each", lang, row.Precision, row.Recall)
		}
	}
	_ = res.String()
}

func TestRunFigure4Shape(t *testing.T) {
	res, err := RunFigure4(ScaleTiny, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != len(figure4Budgets(ScaleTiny)) {
		t.Fatalf("got %d rows, want %d budgets", len(res.Rows), len(figure4Budgets(ScaleTiny)))
	}
	// §6.2's claim: accuracy saturates — even the smallest budget stays
	// within a modest distance of the unlimited run.
	unlimited := res.Rows[len(res.Rows)-1]
	for _, r := range res.Rows {
		if r.Recall < unlimited.Recall-0.15 {
			t.Fatalf("budget %d recall %.2f collapsed vs unlimited %.2f", r.MaxPSTBytes, r.Recall, unlimited.Recall)
		}
	}
	_ = res.String()
}

func TestRunFigure5Shape(t *testing.T) {
	res, err := RunFigure5(ScaleTiny, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 5 {
		t.Fatalf("got %d rows", len(res.Rows))
	}
	// Quality at the recommended m/k=5 must not trail the best by much.
	best := 0.0
	var atFive float64
	for _, r := range res.Rows {
		if r.Recall > best {
			best = r.Recall
		}
		if r.SampleFactor == 5 {
			atFive = r.Recall
		}
	}
	if atFive < best-0.1 {
		t.Fatalf("recall at m/k=5 (%.2f) trails best (%.2f)", atFive, best)
	}
	_ = res.String()
}

func TestRunTable5Shape(t *testing.T) {
	res, err := RunTable5(ScaleTiny, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 4 {
		t.Fatalf("got %d rows", len(res.Rows))
	}
	// The paper's claim: the final cluster count lands near the truth
	// regardless of the initial k.
	for _, r := range res.Rows {
		if r.FinalK < res.TrueClusters-2 || r.FinalK > res.TrueClusters+3 {
			t.Fatalf("init k=%d converged to %d clusters (true %d)", r.InitialK, r.FinalK, res.TrueClusters)
		}
	}
	_ = res.String()
}

func TestRunTable6Shape(t *testing.T) {
	res, err := RunTable6(ScaleTiny, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 4 {
		t.Fatalf("got %d rows", len(res.Rows))
	}
	// The paper's claim: the final t converges to (nearly) the same value
	// from every starting point.
	lo, hi := res.Rows[0].FinalT, res.Rows[0].FinalT
	for _, r := range res.Rows {
		if r.FinalT < lo {
			lo = r.FinalT
		}
		if r.FinalT > hi {
			hi = r.FinalT
		}
	}
	if hi/lo > 1.2 {
		t.Fatalf("final thresholds too spread: [%v, %v]", lo, hi)
	}
	_ = res.String()
}

func TestRunOrderStudyShape(t *testing.T) {
	res, err := RunOrderStudy(ScaleTiny, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("got %d rows", len(res.Rows))
	}
	fixed, ok := res.Row("fixed")
	if !ok || fixed.Accuracy < 0.5 {
		t.Fatalf("fixed order accuracy %.2f too low", fixed.Accuracy)
	}
	_ = res.String()
}

func TestRunOutlierStudyShape(t *testing.T) {
	res, err := RunOutlierStudy(ScaleTiny, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 4 {
		t.Fatalf("got %d rows, want 4 fractions", len(res.Rows))
	}
	// §6.1's claim: accuracy immune to the outlier fraction. Allow modest
	// variation at tiny scale.
	lo, hi := 1.0, 0.0
	for _, r := range res.Rows {
		if r.Accuracy < lo {
			lo = r.Accuracy
		}
		if r.Accuracy > hi {
			hi = r.Accuracy
		}
		if r.OutliersRejected < 0.5 {
			t.Fatalf("frac %.2f: only %.0f%% of outliers rejected", r.OutlierFrac, 100*r.OutliersRejected)
		}
	}
	if hi-lo > 0.25 {
		t.Fatalf("accuracy varies too much with outliers: [%.2f, %.2f]", lo, hi)
	}
	_ = res.String()
}

func TestRunFigure6Shapes(t *testing.T) {
	for _, axis := range Figure6Axes {
		res, err := RunFigure6(ScaleTiny, axis, 1)
		if err != nil {
			t.Fatalf("%s: %v", axis, err)
		}
		if len(res.Rows) < 3 {
			t.Fatalf("%s: only %d sweep points", axis, len(res.Rows))
		}
		_ = res.String()
	}
	if _, err := RunFigure6(ScaleTiny, "bogus", 1); err == nil {
		t.Fatal("unknown axis should fail")
	}
}

// TestFigure6SequencesRoughlyLinear asserts §6.4's headline shape: time
// grows with the number of sequences and does not blow up super-linearly.
func TestFigure6SequencesRoughlyLinear(t *testing.T) {
	if testing.Short() {
		t.Skip("timing-sensitive; skipped with -short")
	}
	res, err := RunFigure6(ScaleTiny, "sequences", 1)
	if err != nil {
		t.Fatal(err)
	}
	first, last := res.Rows[0], res.Rows[len(res.Rows)-1]
	if last.Elapsed <= first.Elapsed {
		t.Skipf("timing noise: %v for %d seqs vs %v for %d", first.Elapsed, first.X, last.Elapsed, last.X)
	}
	nRatio := float64(last.X) / float64(first.X)
	tRatio := last.Elapsed.Seconds() / first.Elapsed.Seconds()
	// Allow generous headroom over linear for constant factors and noise.
	if tRatio > nRatio*nRatio {
		t.Fatalf("time ratio %.1f vs size ratio %.1f: super-quadratic growth", tRatio, nRatio)
	}
}

// TestReclusterBenchLayers checks the recluster benchmark's layered rows:
// every cell reports the same clustering, the phase times and the
// unattributed remainder add up to the wall time, and the host is named.
func TestReclusterBenchLayers(t *testing.T) {
	// Two runs: the median of two is their mean, which is linear, so the
	// per-run identity Σ phases + unattributed = elapsed survives it.
	res, err := runReclusterBench(ScaleTiny, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	if res.Runs != 2 || len(res.Rows) != 4 {
		t.Fatalf("got %d runs and %d rows, want 2 and 4", res.Runs, len(res.Rows))
	}
	if res.Host.CPU == "" || res.Host.GOMAXPROCS < 1 || res.Host.GoVersion == "" || res.Host.Commit == "" {
		t.Fatalf("host metadata incomplete: %+v", res.Host)
	}
	for _, r := range res.Rows {
		if r.Iterations != res.Rows[0].Iterations || r.Accuracy != res.Rows[0].Accuracy {
			t.Errorf("workers=%d cache-off=%v clustered differently from the first cell", r.Workers, r.CacheOff)
		}
		if r.Generate <= 0 || r.Score <= 0 || r.Apply <= 0 || r.Unattributed < 0 {
			t.Errorf("workers=%d cache-off=%v: phase times missing: %+v", r.Workers, r.CacheOff, r)
		}
		sum := r.Generate + r.Score + r.Apply + r.Consolidate + r.Threshold + r.Unattributed
		if d := sum - r.Elapsed; d < -time.Microsecond || d > time.Microsecond {
			t.Errorf("workers=%d cache-off=%v: phases and remainder sum to %v, elapsed %v", r.Workers, r.CacheOff, sum, r.Elapsed)
		}
	}
	_ = res.String()
}
