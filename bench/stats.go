package main

import (
	"slices"

	"skewsim/internal/stats"
)

// percentile is the q-quantile (q in [0,1]) with linear interpolation
// between order statistics.
func percentile(xs []float64, q float64) float64 { return stats.Quantile(xs, q) }

func median(xs []float64) float64 { return percentile(xs, 0.5) }

// tailMinSamples is what a window needs for its own p99 to have ten
// samples beyond it.
const tailMinSamples = 1000

// windowedTail is the benchmark's p99: xs, in due order, is cut into
// equal consecutive windows and the median of the windows' p99s is
// reported, when every window has tailMinSamples samples; else the p99
// of the whole. One scheduler hiccup lands in one window and moves the
// median far less than it moves a single p99.
func windowedTail(xs []float64, windows int) float64 {
	if len(xs) < windows*tailMinSamples {
		return percentile(xs, 0.99)
	}
	p99s := make([]float64, windows)
	for w := range p99s {
		p99s[w] = percentile(xs[w*len(xs)/windows:(w+1)*len(xs)/windows], 0.99)
	}
	return median(p99s)
}

// quartiles returns the first, second and third quartile exactly as
// Python's statistics.quantiles(values, n=4) does (the "exclusive"
// method), because the acceptance check is stated in those terms.
func quartiles(values []float64) (q1, q2, q3 float64) {
	xs := slices.Clone(values)
	slices.Sort(xs)
	n := len(xs)
	at := func(i int) float64 {
		// j and delta as in CPython: position i*(n+1)/4, clamped.
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := i*(n+1) - j*4
		return (xs[j-1]*float64(4-delta) + xs[j]*float64(delta)) / 4
	}
	return at(1), at(2), at(3)
}

// spread is the distance between the first and third quartile as a
// share of the median: the run-to-run noise a bound is compared with.
func spread(values []float64) float64 {
	q1, q2, q3 := quartiles(values)
	if q2 == 0 {
		return 0
	}
	return (q3 - q1) / q2
}
