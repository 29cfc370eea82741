// Package dist implements the paper's probabilistic data model (§2): the
// product distribution D[p1..pd] over subsets of a universe of d items,
// where item i is included independently with probability p_i.
//
// The package provides
//
//   - Product, a validated distribution with the sampling primitives the
//     workload generators need (independent draws, the correlated draws
//     q ~ D_α(x) of §6, and the derived model constants C, Σp, E[B]);
//   - the item-frequency profiles the experiments instantiate (Uniform,
//     Zipf, Harmonic, TwoBlock, Fig1Profile, PiecewiseZipf);
//   - empirical estimation from data (§9: EstimateProduct,
//     EstimateFrequencies);
//   - independence diagnostics (IndependenceRatio and its mass-weighted
//     variant), the measurement behind the paper's Table 1.
package dist

import (
	"errors"
	"fmt"
	"math"

	"skewsim/internal/bitvec"
	"skewsim/internal/hashing"
)

// Product is the product distribution D[p1..pd]: a vector x ~ D sets bit
// i independently with probability p_i. Immutable after construction.
type Product struct {
	probs []float64
	sum   float64 // Σ p_i
	sumSq float64 // Σ p_i²
	runs  []probRun
}

// probRun is a maximal run [start, end) of equal item probability, the
// unit over which sampling takes geometric skips. Profiles are piecewise
// (uniform blocks, two-block mixes), so runs are few and sampling costs
// O(runs + |x|) instead of O(d).
type probRun struct {
	start, end int
	p          float64
}

// NewProduct validates the probability vector and builds a distribution.
// Each p_i must lie in [0, 1]; the dimension must be at least 1.
func NewProduct(probs []float64) (*Product, error) {
	if len(probs) == 0 {
		return nil, errors.New("dist: empty probability vector")
	}
	d := &Product{probs: make([]float64, len(probs))}
	copy(d.probs, probs)
	for i, p := range d.probs {
		if math.IsNaN(p) || p < 0 || p > 1 {
			return nil, fmt.Errorf("dist: probs[%d] = %v outside [0, 1]", i, p)
		}
		d.sum += p
		d.sumSq += p * p
	}
	start := 0
	for i := 1; i <= len(d.probs); i++ {
		if i == len(d.probs) || d.probs[i] != d.probs[start] {
			d.runs = append(d.runs, probRun{start: start, end: i, p: d.probs[start]})
			start = i
		}
	}
	return d, nil
}

// MustProduct is NewProduct panicking on error, for tests and literals.
func MustProduct(probs []float64) *Product {
	d, err := NewProduct(probs)
	if err != nil {
		panic(err)
	}
	return d
}

// Dim returns the universe size d.
func (d *Product) Dim() int { return len(d.probs) }

// P returns the inclusion probability of item i.
func (d *Product) P(i int) float64 { return d.probs[i] }

// Probs returns a copy of the probability vector (callers may retain it).
func (d *Product) Probs() []float64 {
	out := make([]float64, len(d.probs))
	copy(out, d.probs)
	return out
}

// ExpectedSize returns E[|x|] = Σ p_i, the paper's C·log n.
func (d *Product) ExpectedSize() float64 { return d.sum }

// C returns the model constant C = Σp / ln n for dataset size n
// (the paper parameterizes Σ p_i = C·log n). Returns 0 for n < 2.
func (d *Product) C(n int) float64 {
	if n < 2 {
		return 0
	}
	return d.sum / math.Log(float64(n))
}

// ExpectedBraunBlanquet returns the expected Braun-Blanquet similarity of
// two independent draws, b2 ≈ E[|x∩y|]/E[max(|x|,|y|)] = Σp² / Σp — the
// "far" similarity the Chosen Path baseline must be configured with.
func (d *Product) ExpectedBraunBlanquet() float64 {
	if d.sum == 0 {
		return 0
	}
	return d.sumSq / d.sum
}

// ExpectedCorrelatedBraunBlanquet returns the expected similarity of a
// planted pair (x, q) with q ~ D_α(x): b1 ≈ α + (1−α)·b2.
func (d *Product) ExpectedCorrelatedBraunBlanquet(alpha float64) float64 {
	return alpha + (1-alpha)*d.ExpectedBraunBlanquet()
}

// ConditionalProbs returns the §6 conditional probabilities
// p̂_i = Pr[q_i = 1 | x_i = 1] = p_i(1−α) + α for q ~ D_α(x).
func (d *Product) ConditionalProbs(alpha float64) []float64 {
	out := make([]float64, len(d.probs))
	for i, p := range d.probs {
		out[i] = p*(1-alpha) + alpha
	}
	return out
}

// Sample draws one vector x ~ D.
func (d *Product) Sample(rng *hashing.SplitMix64) bitvec.Vector {
	bits := make([]uint32, 0, int(d.sum)+4)
	for _, r := range d.runs {
		bits = appendRunSample(rng, bits, r.start, r.end, r.p)
	}
	return bitvec.FromSorted(bits)
}

// SampleN draws n independent vectors.
func (d *Product) SampleN(rng *hashing.SplitMix64, n int) []bitvec.Vector {
	out := make([]bitvec.Vector, n)
	for i := range out {
		out[i] = d.Sample(rng)
	}
	return out
}

// SampleCorrelated draws q ~ D_α(x), the planted-query distribution of
// Theorem 1: independently per item, q_i = x_i with probability α and a
// fresh Bernoulli(p_i) draw otherwise. Items of x outside [0, d) are kept
// with probability α (they have model probability 0).
func (d *Product) SampleCorrelated(rng *hashing.SplitMix64, x bitvec.Vector, alpha float64) bitvec.Vector {
	// Bits of x survive with probability α + (1−α)p_i.
	kept := make([]uint32, 0, x.Len())
	for _, b := range x.Bits() {
		p := 0.0
		if int(b) < len(d.probs) {
			p = d.probs[b]
		}
		if rng.NextUnit() < alpha+(1-alpha)*p {
			kept = append(kept, b)
		}
	}
	// Bits outside x appear with probability (1−α)p_i.
	noise := make([]uint32, 0, 8)
	for _, r := range d.runs {
		noise = appendRunSampleExcluding(rng, noise, r.start, r.end, (1-alpha)*r.p, x)
	}
	return bitvec.FromSorted(mergeSorted(kept, noise))
}

// appendRunSample appends a Bernoulli(p) sample of indices in [start, end)
// to bits, using geometric skips so the cost is proportional to the number
// of successes rather than the run length.
func appendRunSample(rng *hashing.SplitMix64, bits []uint32, start, end int, p float64) []uint32 {
	switch {
	case p <= 0:
		return bits
	case p >= 1:
		for i := start; i < end; i++ {
			bits = append(bits, uint32(i))
		}
		return bits
	}
	logQ := math.Log1p(-p) // log(1-p) < 0
	for i := start; ; {
		u := rng.NextUnit()
		for u == 0 {
			u = rng.NextUnit()
		}
		i += int(math.Log(u) / logQ)
		if i >= end {
			return bits
		}
		bits = append(bits, uint32(i))
		i++
	}
}

// appendRunSampleExcluding is appendRunSample skipping indices present in x.
func appendRunSampleExcluding(rng *hashing.SplitMix64, bits []uint32, start, end int, p float64, x bitvec.Vector) []uint32 {
	switch {
	case p <= 0:
		return bits
	case p >= 1:
		for i := start; i < end; i++ {
			if !x.Contains(uint32(i)) {
				bits = append(bits, uint32(i))
			}
		}
		return bits
	}
	logQ := math.Log1p(-p)
	for i := start; ; {
		u := rng.NextUnit()
		for u == 0 {
			u = rng.NextUnit()
		}
		i += int(math.Log(u) / logQ)
		if i >= end {
			return bits
		}
		if !x.Contains(uint32(i)) {
			bits = append(bits, uint32(i))
		}
		i++
	}
}

// mergeSorted merges two sorted disjoint index slices.
func mergeSorted(a, b []uint32) []uint32 {
	if len(a) == 0 {
		return b
	}
	if len(b) == 0 {
		return a
	}
	out := make([]uint32, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		if a[i] < b[j] {
			out = append(out, a[i])
			i++
		} else {
			out = append(out, b[j])
			j++
		}
	}
	out = append(out, a[i:]...)
	out = append(out, b[j:]...)
	return out
}
