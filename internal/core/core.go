// Package core implements SkewSearch, the paper's primary contribution
// (§4–§6): a skew-adaptive set-similarity search structure for data
// drawn from a known product distribution D[p1..pd].
//
// SkewSearch instantiates the locality-sensitive filtering engine
// (internal/lsf) with the paper's two threshold schemes:
//
//   - Adversarial mode (§5, Theorem 2): s(x, j, i) = 1/(b1·|x| − j). The
//     structure answers any query q with B(q, x) ≥ b1 for some x ∈ S in
//     time O(d·n^{ρ(q)+ε}) where ρ(q) adapts to the query's skew.
//
//   - Correlated mode (§6, Theorem 1): for q ~ D_α(x), using the
//     conditional probabilities p̂_i = p_i(1−α) + α and boost
//     δ = 3/√(αC), s(x, j, i) = (1+δ)/(p̂_i·C·log n − j), with
//     verification threshold b1 = α/1.3 (Lemma 10).
//
// Both modes share the stopping rule Π_{i∈v} p_i ≤ 1/n and sampling
// without replacement. A single filter instance succeeds with probability
// Ω(1/log n) (Lemma 5), so the index keeps R ≈ log n independent
// repetitions and queries them in sequence.
//
// The same engine and search loop also run the baseline the paper
// improves on, Chosen Path (Christiani and Pagh, STOC 2017), as the
// FixedDepth scheme (BuildChosenPath): a constant, skew-oblivious
// threshold s(x, j, i) = 1/(b1·|x|) and a fixed path length
// k = ⌈ln n / ln(1/b2)⌉ in place of the stopping rule. Its exponent is
// ρ = log(b1)/log(b2) whatever the data distribution, which is exactly
// the weakness SkewSearch addresses. Unlike the original, its paths
// sample without replacement too; for the sparse regimes both papers
// target (|x| ≫ k) the difference vanishes.
package core

import (
	"context"
	"errors"
	"fmt"
	"math"

	"skewsim/internal/bitvec"
	"skewsim/internal/dist"
	"skewsim/internal/lsf"
	"skewsim/internal/rho"
	"skewsim/internal/segment"
	"skewsim/internal/verify"
)

// Mode selects the threshold scheme.
type Mode int

const (
	// Adversarial mode gives worst-case per-query adaptive guarantees
	// (Theorem 2).
	Adversarial Mode = iota
	// Correlated mode targets planted queries q ~ D_α(x) (Theorem 1).
	Correlated
	// FixedDepth is the Chosen Path baseline (BuildChosenPath).
	FixedDepth
)

// String names the mode.
func (m Mode) String() string {
	switch m {
	case Adversarial:
		return "adversarial"
	case Correlated:
		return "correlated"
	case FixedDepth:
		return "fixed-depth"
	default:
		return fmt.Sprintf("mode(%d)", int(m))
	}
}

// Options tunes the index. The zero value is a sensible default.
type Options struct {
	// Seed drives all randomness; equal seeds give identical structures.
	Seed uint64
	// Repetitions is the number of independent filter instances.
	// 0 means ceil(log2 n) + 1, matching the Ω(1/log n) per-instance
	// success probability of Lemma 5.
	Repetitions int
	// Measure used for candidate verification. Defaults to Braun-Blanquet,
	// the paper's measure.
	Measure bitvec.Measure
	// MaxDepth and MaxFiltersPerVector are forwarded to the engine
	// (0 = engine defaults). FixedDepth mode ignores MaxDepth: its
	// paths are k elements long.
	MaxDepth            int
	MaxFiltersPerVector int
}

// Result of a query.
type Result struct {
	// ID indexes into the data slice; -1 when not found.
	ID int
	// Similarity under the verification measure.
	Similarity float64
	Found      bool
	Stats      segment.QueryStats
}

// Index is a built SkewSearch or Chosen Path structure: the scheme's
// parameters over a bulk-loaded segment.SegmentedIndex, whose one search
// loop answers every query. The index owns no goroutine and needs no
// Close.
type Index struct {
	mode      Mode
	d         *dist.Product // nil in FixedDepth mode
	alpha     float64       // correlated mode only
	threshold float64       // verification threshold b1
	measure   bitvec.Measure
	seg       *segment.SegmentedIndex
}

// BuildAdversarial preprocesses data for adversarial queries with
// similarity threshold b1 ∈ (0, 1].
func BuildAdversarial(d *dist.Product, data []bitvec.Vector, b1 float64, opt Options) (*Index, error) {
	if b1 <= 0 || b1 > 1 {
		return nil, fmt.Errorf("core: b1 = %v outside (0, 1]", b1)
	}
	return build(Adversarial, d, data, b1, opt)
}

// BuildCorrelated preprocesses data for correlated queries with
// correlation α ∈ (0, 1].
func BuildCorrelated(d *dist.Product, data []bitvec.Vector, alpha float64, opt Options) (*Index, error) {
	if alpha <= 0 || alpha > 1 {
		return nil, fmt.Errorf("core: alpha = %v outside (0, 1]", alpha)
	}
	return build(Correlated, d, data, alpha, opt)
}

// BuildChosenPath preprocesses data as the Chosen Path structure for
// (b1, b2)-approximate similarity search, 0 < b2 < b1 ≤ 1: paths of
// PathLength(len(data), b2) elements, each element taken with
// probability min(1, 1/(b1·|x|)), and candidates verified at b1. It
// needs no distribution.
func BuildChosenPath(data []bitvec.Vector, b1, b2 float64, opt Options) (*Index, error) {
	if !(0 < b2 && b2 < b1 && b1 <= 1) {
		return nil, fmt.Errorf("core: need 0 < b2 < b1 <= 1, got b1=%v b2=%v", b1, b2)
	}
	if len(data) == 0 {
		return nil, errors.New("core: empty dataset")
	}
	k := PathLength(len(data), b2)
	// The constant s(x, j, i): neither the depth nor the element moves it.
	threshold := func(x bitvec.Vector, _ int, _ uint32) float64 {
		return min(1, 1/(b1*float64(x.Len())))
	}
	params, err := repParams(len(data), opt, lsf.Params{
		Threshold:           threshold,
		Stop:                lsf.FixedDepthStopRule(k),
		MaxDepth:            k + 1,
		MaxFiltersPerVector: opt.MaxFiltersPerVector,
	})
	if err != nil {
		return nil, err
	}
	return load(FixedDepth, nil, data, b1, params, opt.Measure)
}

// PathLength returns Chosen Path's fixed depth k = ⌈ln n / ln(1/b2)⌉
// for dataset size n and far similarity b2 (1 when n < 2).
func PathLength(n int, b2 float64) int {
	if n < 2 {
		return 1
	}
	return max(1, int(math.Ceil(math.Log(float64(n))/math.Log(1/b2))))
}

// build bulk-loads data under the mode's engines; param is b1 or α.
func build(mode Mode, d *dist.Product, data []bitvec.Vector, param float64, opt Options) (*Index, error) {
	if len(data) == 0 {
		return nil, errors.New("core: empty dataset")
	}
	params, err := EngineParams(mode, d, len(data), param, opt)
	if err != nil {
		return nil, err
	}
	return load(mode, d, data, param, params, opt.Measure)
}

// load bulk-loads data under the repetitions' params; param is b1 or α.
func load(mode Mode, d *dist.Product, data []bitvec.Vector, param float64, params []lsf.Params, m bitvec.Measure) (*Index, error) {
	threshold, err := VerificationThreshold(mode, param)
	if err != nil {
		return nil, err
	}
	seg, err := segment.BulkLoad(segment.Config{Params: params, N: len(data)}, data)
	if err != nil {
		return nil, err
	}
	ix := &Index{mode: mode, d: d, threshold: threshold, measure: m, seg: seg}
	if mode == Correlated {
		ix.alpha = param
	}
	return ix, nil
}

// adversarialThreshold is §5's s(x, j, i) = 1/(b1·|x| − j), clamped into
// [0, 1]: once j reaches b1·|x| − 1 every remaining extension is taken
// (the stopping rule and depth cap bound the blowup).
func adversarialThreshold(b1 float64) lsf.ThresholdFunc {
	return func(x bitvec.Vector, j int, _ uint32) float64 {
		denom := b1*float64(x.Len()) - float64(j)
		if denom <= 1 {
			return 1
		}
		return 1 / denom
	}
}

// correlatedThreshold is §6's s(x, j, i) = (1+δ)/(p̂_i·C·log n − j) with
// C·log n instantiated as Σ p_i (its defining identity) and δ = 3/√(αC).
func correlatedThreshold(d *dist.Product, n int, alpha float64) lsf.ThresholdFunc {
	clogn := d.ExpectedSize() // = C·log n by definition of C
	c := d.C(n)
	delta := 0.0
	if c > 0 {
		delta = 3 / math.Sqrt(alpha*c)
	}
	phat := d.ConditionalProbs(alpha)
	return func(_ bitvec.Vector, j int, i uint32) float64 {
		ph := alpha // out-of-range elements: p = 0 ⇒ p̂ = α
		if int(i) < len(phat) {
			ph = phat[i]
		}
		denom := ph*clogn - float64(j)
		if denom <= 1+delta {
			return 1
		}
		return (1 + delta) / denom
	}
}

// Mode returns the index's mode.
func (ix *Index) Mode() Mode { return ix.mode }

// Threshold returns the verification threshold b1 (α/1.3 in correlated
// mode).
func (ix *Index) Threshold() float64 { return ix.threshold }

// Repetitions returns the number of filter instances.
func (ix *Index) Repetitions() int { return ix.seg.Repetitions() }

// Data returns the indexed vectors.
func (ix *Index) Data() []bitvec.Vector { return ix.seg.Data() }

// Query searches for a vector with similarity at least the verification
// threshold: a mode-first segment search, walking repetitions until one
// succeeds. A query every repetition of which truncates (work budget)
// is answered by an exact scan, so correctness never silently drops.
func (ix *Index) Query(q bitvec.Vector) Result {
	ses := verify.Acquire(ix.measure, q)
	defer verify.Release(ses)
	return result(ix.seg.QueryWithContext(context.Background(), ses, ix.threshold))
}

// QueryBest returns the most similar candidate across all repetitions,
// regardless of threshold, ties to the lowest id. Found is false only
// when no repetition yields any candidate. A query that finds none and
// whose every repetition truncates is answered by an exact best-match
// scan instead.
func (ix *Index) QueryBest(q bitvec.Vector) Result {
	ses := verify.Acquire(ix.measure, q)
	defer verify.Release(ses)
	return result(ix.seg.QueryBestWithContext(context.Background(), ses))
}

// result converts a one-query segment answer. The error is dropped: a
// search under context.Background cannot be cancelled.
func result(m segment.Match, st segment.QueryStats, found bool, _ error) Result {
	if !found {
		return Result{ID: -1, Stats: st}
	}
	return Result{ID: int(m.ID), Similarity: m.Similarity, Found: true, Stats: st}
}

// QueryParallel answers the queries in input order through Query, fanned
// out over `workers` goroutines (workers <= 0 selects GOMAXPROCS).
func (ix *Index) QueryParallel(qs []bitvec.Vector, workers int) []Result {
	out := make([]Result, len(qs))
	lsf.ForEachParallel(len(qs), workers, func(k int) {
		out[k] = ix.Query(qs[k])
	})
	return out
}

// Candidates returns the distinct candidate ids over all repetitions.
// Used by the join driver and by experiments analyzing candidate sets.
func (ix *Index) Candidates(q bitvec.Vector) []int32 { return ix.seg.Candidates(q) }

// PredictedQueryRho returns the theory's exponent for this index and a
// given query (adversarial mode: Theorem 2's ρ(q); correlated mode:
// Theorem 1's ρ, which is query-independent). FixedDepth mode has no
// distribution to predict from, and returns an error.
func (ix *Index) PredictedQueryRho(q bitvec.Vector) (float64, error) {
	switch ix.mode {
	case Adversarial:
		ps := make([]float64, 0, q.Len())
		for _, b := range q.Bits() {
			if int(b) < ix.d.Dim() {
				ps = append(ps, ix.d.P(int(b)))
			} else {
				ps = append(ps, 0)
			}
		}
		return rho.AdversarialQueryRho(rho.FromProbs(ps), ix.threshold)
	case Correlated:
		return rho.CorrelatedRho(rho.FromProbs(ix.d.Probs()), ix.alpha)
	default:
		return 0, fmt.Errorf("core: no predicted exponent in mode %v", ix.mode)
	}
}
