package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func almost(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestRegressionSlopeExactLine(t *testing.T) {
	// y = 3 + 2x should recover slope 2 exactly.
	xs := []float64{0, 1, 2, 3, 4}
	ys := []float64{3, 5, 7, 9, 11}
	if got := RegressionSlope(xs, ys); !almost(got, 2) {
		t.Fatalf("slope = %v, want 2", got)
	}
}

func TestRegressionSlopeNegative(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	ys := []float64{10, 8, 6, 4}
	if got := RegressionSlope(xs, ys); !almost(got, -2) {
		t.Fatalf("slope = %v, want -2", got)
	}
}

func TestRegressionSlopeDegenerate(t *testing.T) {
	if got := RegressionSlope([]float64{1}, []float64{1}); got != 0 {
		t.Fatalf("single point slope = %v, want 0", got)
	}
	if got := RegressionSlope([]float64{2, 2, 2}, []float64{1, 5, 9}); got != 0 {
		t.Fatalf("vertical slope = %v, want 0", got)
	}
	if got := RegressionSlope(nil, nil); got != 0 {
		t.Fatalf("empty slope = %v, want 0", got)
	}
}

func TestRegressionSlopePanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("want panic on mismatched lengths")
		}
	}()
	RegressionSlope([]float64{1, 2}, []float64{1})
}

func TestRegressionSlopeShiftInvariant(t *testing.T) {
	// Adding a constant to y must not change the slope.
	f := func(raw []float64) bool {
		if len(raw) < 3 {
			return true
		}
		xs := make([]float64, len(raw))
		ys := make([]float64, len(raw))
		for i, v := range raw {
			if math.IsNaN(v) || math.IsInf(v, 0) || math.Abs(v) > 1e6 {
				return true
			}
			xs[i] = float64(i)
			ys[i] = v
		}
		s1 := RegressionSlope(xs, ys)
		for i := range ys {
			ys[i] += 100
		}
		s2 := RegressionSlope(xs, ys)
		return math.Abs(s1-s2) < 1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMedian(t *testing.T) {
	if got := Median([]float64{3, 1, 2}); !almost(got, 2) {
		t.Fatalf("odd median = %v, want 2", got)
	}
	if got := Median([]float64{4, 1, 3, 2}); !almost(got, 2.5) {
		t.Fatalf("even median = %v, want 2.5", got)
	}
	if Median(nil) != 0 {
		t.Fatal("empty median must be 0")
	}
	// Median must not reorder its input.
	xs := []float64{3, 1, 2}
	Median(xs)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Fatal("Median mutated its input")
	}
}
