package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, eps float64) bool { return math.Abs(a-b) <= eps }

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	cases := []struct{ q, want float64 }{
		{0, 1}, {1, 4}, {0.5, 2.5}, {0.25, 1.75},
	}
	for _, c := range cases {
		if got := Quantile(xs, c.q); !almostEqual(got, c.want, 1e-12) {
			t.Errorf("Quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	// Input must not be reordered.
	if xs[0] != 4 {
		t.Error("Quantile mutated its input")
	}
}

func TestQuantileDegenerate(t *testing.T) {
	if !math.IsNaN(Quantile(nil, 0.5)) {
		t.Error("empty sample should give NaN")
	}
	if !math.IsNaN(Quantile([]float64{1}, -0.1)) || !math.IsNaN(Quantile([]float64{1}, 1.1)) {
		t.Error("out-of-range q should give NaN")
	}
	if got := Quantile([]float64{5}, 0.99); got != 5 {
		t.Errorf("single element quantile = %v", got)
	}
}

func TestMean(t *testing.T) {
	if !math.IsNaN(Mean(nil)) {
		t.Error("empty mean should be NaN")
	}
	if got := Mean([]float64{2, 4}); got != 3 {
		t.Errorf("Mean = %v", got)
	}
}

func TestFitLineExact(t *testing.T) {
	x := []float64{0, 1, 2, 3}
	y := []float64{1, 3, 5, 7} // y = 1 + 2x
	fit, err := FitLine(x, y)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(fit.Slope, 2, 1e-12) || !almostEqual(fit.Intercept, 1, 1e-12) {
		t.Errorf("fit = %+v", fit)
	}
	if !almostEqual(fit.R2, 1, 1e-12) {
		t.Errorf("R2 = %v", fit.R2)
	}
}

func TestFitLineNoisy(t *testing.T) {
	x := []float64{1, 2, 3, 4, 5}
	y := []float64{2.1, 3.9, 6.2, 7.8, 10.1}
	fit, err := FitLine(x, y)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(fit.Slope-2) > 0.1 {
		t.Errorf("slope = %v, want ~2", fit.Slope)
	}
	if fit.R2 < 0.99 {
		t.Errorf("R2 = %v", fit.R2)
	}
}

func TestFitLineErrors(t *testing.T) {
	if _, err := FitLine([]float64{1}, []float64{1}); err == nil {
		t.Error("single point should fail")
	}
	if _, err := FitLine([]float64{1, 2}, []float64{1}); err == nil {
		t.Error("length mismatch should fail")
	}
	if _, err := FitLine([]float64{2, 2}, []float64{1, 3}); err == nil {
		t.Error("vertical data should fail")
	}
}

func TestFitLineConstantY(t *testing.T) {
	fit, err := FitLine([]float64{1, 2, 3}, []float64{5, 5, 5})
	if err != nil {
		t.Fatal(err)
	}
	if fit.Slope != 0 || fit.R2 != 1 {
		t.Errorf("constant fit = %+v", fit)
	}
}

func TestFitExponentRecoversPowerLaw(t *testing.T) {
	ns := []int{1000, 2000, 4000, 8000, 16000}
	costs := make([]float64, len(ns))
	for i, n := range ns {
		costs[i] = 3 * math.Pow(float64(n), 0.42)
	}
	fit, err := FitExponent(ns, costs)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(fit.Slope, 0.42, 1e-9) {
		t.Errorf("exponent = %v, want 0.42", fit.Slope)
	}
}

func TestFitExponentRejectsNonPositive(t *testing.T) {
	if _, err := FitExponent([]int{0, 1}, []float64{1, 1}); err == nil {
		t.Error("n=0 should fail")
	}
	if _, err := FitExponent([]int{1, 2}, []float64{1, 0}); err == nil {
		t.Error("cost=0 should fail")
	}
	if _, err := FitExponent([]int{1, 2}, []float64{1}); err == nil {
		t.Error("length mismatch should fail")
	}
}

func TestHistogram(t *testing.T) {
	xs := []float64{0, 0.1, 0.5, 0.9, 1.5, -1}
	h := Histogram(xs, 0, 1, 2)
	// Bin 0 = [0, 0.5): {0, 0.1, clamped -1}; bin 1 = [0.5, 1): {0.5, 0.9,
	// clamped 1.5}.
	if h[0] != 3 || h[1] != 3 {
		t.Errorf("histogram = %v", h)
	}
}

func TestHistogramDegenerate(t *testing.T) {
	if Histogram([]float64{1}, 0, 1, 0) != nil {
		t.Error("0 buckets should give nil")
	}
	if Histogram([]float64{1}, 1, 1, 3) != nil {
		t.Error("empty range should give nil")
	}
}

func TestHistogramTotalCount(t *testing.T) {
	f := func(raw []float64) bool {
		h := Histogram(raw, -10, 10, 7)
		total := 0
		for _, c := range h {
			total += c
		}
		return total == len(raw)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
