package core

import (
	"errors"
	"fmt"
	"math"

	"skewsim/internal/dist"
	"skewsim/internal/hashing"
	"skewsim/internal/lsf"
)

// EngineParams constructs the per-repetition lsf engine parameters of a
// SkewSearch structure: mode-specific threshold function, the paper's
// product stopping rule for dataset size n, and one seed per repetition
// derived from opt.Seed. It is the single source of engine configuration
// — the static build consumes it, and the serving layer
// (internal/segment, internal/server) consumes it to run the same
// scheme over mutable segmented indexes with identical filter mappings.
//
// param is b1 in Adversarial mode and α in Correlated mode, in (0, 1].
// FixedDepth (Chosen Path) is built by BuildChosenPath only.
// n is the dataset size the stopping rule and default repetition count
// are tuned for; for online serving pass the expected steady-state size.
func EngineParams(mode Mode, d *dist.Product, n int, param float64, opt Options) ([]lsf.Params, error) {
	if d == nil {
		return nil, errors.New("core: nil distribution")
	}
	if n < 1 {
		return nil, fmt.Errorf("core: dataset size %d must be >= 1", n)
	}
	if param <= 0 || param > 1 {
		return nil, fmt.Errorf("core: parameter %v outside (0, 1]", param)
	}
	var threshold lsf.ThresholdFunc
	switch mode {
	case Adversarial:
		threshold = adversarialThreshold(param)
	case Correlated:
		threshold = correlatedThreshold(d, n, param)
	default:
		return nil, fmt.Errorf("core: EngineParams does not build mode %v", mode)
	}
	return repParams(n, opt, lsf.Params{
		Probs:               d.Probs(),
		Threshold:           threshold,
		Stop:                lsf.ProductStopRule(n),
		MaxDepth:            opt.MaxDepth,
		MaxFiltersPerVector: opt.MaxFiltersPerVector,
	})
}

// repParams repeats p once per repetition, each copy with its own seed
// drawn in order from SplitMix64(opt.Seed). The repetition count is
// opt.Repetitions, by default ceil(log2 n) + 1.
func repParams(n int, opt Options, p lsf.Params) ([]lsf.Params, error) {
	reps := opt.Repetitions
	if reps == 0 {
		reps = int(math.Ceil(math.Log2(float64(n)))) + 1
	}
	if reps < 1 {
		return nil, fmt.Errorf("core: Repetitions %d must be >= 1", opt.Repetitions)
	}
	seeds := hashing.NewSplitMix64(opt.Seed)
	params := make([]lsf.Params, reps)
	for r := range params {
		params[r] = p
		params[r].Seed = seeds.Next()
	}
	return params, nil
}

// VerificationThreshold returns the candidate-verification threshold the
// mode implies: b1 itself in Adversarial and FixedDepth mode, α/1.3
// (Lemma 10) in Correlated mode.
func VerificationThreshold(mode Mode, param float64) (float64, error) {
	switch mode {
	case Adversarial, FixedDepth:
		return param, nil
	case Correlated:
		return param / 1.3, nil
	default:
		return 0, fmt.Errorf("core: unknown mode %v", mode)
	}
}
