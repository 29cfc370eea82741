// Package stats provides the small statistical toolkit the experiment
// harness needs: means, quantiles, histograms, and ordinary
// least squares on log-log data for fitting empirical cost exponents
// against the ρ values the theory predicts (§4, validated in the §7/§8
// reproductions).
package stats

import (
	"errors"
	"fmt"
	"math"
	"slices"
)

// Quantile returns the q-th quantile (q in [0,1]) of xs using linear
// interpolation between order statistics. It copies and sorts internally.
// Returns NaN for an empty sample or q outside [0,1].
func Quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 || q < 0 || q > 1 || math.IsNaN(q) {
		return math.NaN()
	}
	sorted := make([]float64, len(xs))
	copy(sorted, xs)
	slices.Sort(sorted)
	if len(sorted) == 1 {
		return sorted[0]
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// Mean returns the arithmetic mean, or NaN for an empty sample.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Linear is a fitted line y = Intercept + Slope·x with goodness of fit R².
type Linear struct {
	Slope     float64
	Intercept float64
	R2        float64
}

// FitLine performs ordinary least squares on (x, y) pairs. It needs at
// least two distinct x values.
func FitLine(x, y []float64) (Linear, error) {
	if len(x) != len(y) {
		return Linear{}, fmt.Errorf("stats: length mismatch %d vs %d", len(x), len(y))
	}
	if len(x) < 2 {
		return Linear{}, errors.New("stats: need at least 2 points")
	}
	mx, my := Mean(x), Mean(y)
	sxx, sxy, syy := 0.0, 0.0, 0.0
	for i := range x {
		dx, dy := x[i]-mx, y[i]-my
		sxx += dx * dx
		sxy += dx * dy
		syy += dy * dy
	}
	if sxx == 0 {
		return Linear{}, errors.New("stats: all x values identical")
	}
	slope := sxy / sxx
	fit := Linear{Slope: slope, Intercept: my - slope*mx}
	if syy == 0 {
		fit.R2 = 1 // constant y perfectly fit by horizontal line
	} else {
		fit.R2 = (sxy * sxy) / (sxx * syy)
	}
	return fit, nil
}

// FitExponent fits cost ≈ a·n^e by OLS on (ln n, ln cost) and returns the
// exponent e. Non-positive values are rejected since the model lives on
// the log scale.
func FitExponent(ns []int, costs []float64) (Linear, error) {
	if len(ns) != len(costs) {
		return Linear{}, fmt.Errorf("stats: length mismatch %d vs %d", len(ns), len(costs))
	}
	lx := make([]float64, len(ns))
	ly := make([]float64, len(costs))
	for i := range ns {
		if ns[i] <= 0 || costs[i] <= 0 {
			return Linear{}, fmt.Errorf("stats: non-positive point (%d, %v) at %d", ns[i], costs[i], i)
		}
		lx[i] = math.Log(float64(ns[i]))
		ly[i] = math.Log(costs[i])
	}
	return FitLine(lx, ly)
}

// Histogram counts xs into `buckets` equal-width bins over [lo, hi).
// Values outside the range are clamped into the first/last bin so the
// total count always equals len(xs).
func Histogram(xs []float64, lo, hi float64, buckets int) []int {
	if buckets < 1 || hi <= lo {
		return nil
	}
	counts := make([]int, buckets)
	w := (hi - lo) / float64(buckets)
	for _, x := range xs {
		b := int((x - lo) / w)
		if b < 0 {
			b = 0
		}
		if b >= buckets {
			b = buckets - 1
		}
		counts[b]++
	}
	return counts
}
