package experiments

import (
	"fmt"
	"math"

	"skewsim/internal/bitvec"
	"skewsim/internal/core"
	"skewsim/internal/datagen"
	"skewsim/internal/dist"
	"skewsim/internal/lsf"
)

// AblationConfig parameterizes the design-decision ablations of
// DESIGN.md (D1: stopping rule, D2: conditional weighting).
type AblationConfig struct {
	N           int
	Alpha       float64
	Queries     int
	Repetitions int
	Seed        uint64
}

// DefaultAblationConfig keeps the runtime to a few seconds.
func DefaultAblationConfig() AblationConfig {
	return AblationConfig{N: 800, Alpha: 2.0 / 3, Queries: 30, Repetitions: 4, Seed: 51}
}

// Ablation quantifies the paper's two distinguishing design choices on
// the Figure 1 profile:
//
//   - D1, stopping rule: the per-branch ∏p ≤ 1/n rule vs a Chosen-Path
//     fixed depth, holding the (correlated) thresholds fixed. Measured
//     as index filter volume — the rule is what shortens rare-element
//     branches.
//   - D2, conditional weighting: the p̂-weighted thresholds of §6 vs the
//     uniform adversarial thresholds of §5 on the same correlated
//     workload. Measured as query candidates and recall.
func Ablation(cfg AblationConfig) (*Table, error) {
	if cfg.N < 10 || cfg.Queries < 1 || cfg.Repetitions < 1 {
		return nil, fmt.Errorf("experiments: invalid ablation config %+v", cfg)
	}
	d := dist.MustProduct(dist.Fig1Profile(500, 0.25))
	w, err := datagen.NewCorrelatedWorkload(d, cfg.N, cfg.Queries, cfg.Alpha, cfg.Seed)
	if err != nil {
		return nil, fmt.Errorf("experiments: ablation: %w", err)
	}
	t := &Table{
		Title:   fmt.Sprintf("Ablations (D1 stopping rule, D2 weighting) on fig1 profile, n=%d, alpha=%.3f", cfg.N, cfg.Alpha),
		Columns: []string{"variant", "index filters", "candidates/query", "recall"},
		Notes: []string{
			"D1: fewer filters under the product rule = rare branches terminated early (index-side skew exploitation)",
			"D2: the p̂-weighting buys its asymptotic advantage at a (1+δ) constant cost; at laptop n both reach full recall",
		},
	}

	// D1: shared correlated thresholds, two stopping rules, index volume.
	clogn := d.ExpectedSize()
	c := d.C(cfg.N)
	delta := 3 / math.Sqrt(cfg.Alpha*c)
	phat := d.ConditionalProbs(cfg.Alpha)
	threshold := func(_ bitvec.Vector, j int, i uint32) float64 {
		ph := cfg.Alpha
		if int(i) < len(phat) {
			ph = phat[i]
		}
		denom := ph*clogn - float64(j)
		if denom <= 1+delta {
			return 1
		}
		return (1 + delta) / denom
	}
	// Fixed depth matched to Chosen Path's choice for this b2.
	b2 := d.ExpectedBraunBlanquet()
	k := core.PathLength(cfg.N, b2)
	for _, variant := range []struct {
		name string
		stop lsf.StopRule
		dep  int
	}{
		{"D1 product-rule stop", lsf.ProductStopRule(cfg.N), 0},
		{"D1 fixed-depth stop", lsf.FixedDepthStopRule(k), k + 1},
	} {
		engine, err := lsf.NewEngine(cfg.N, lsf.Params{
			Seed: cfg.Seed + 1, Probs: d.Probs(), Threshold: threshold,
			Stop: variant.stop, MaxDepth: variant.dep,
		})
		if err != nil {
			return nil, err
		}
		ix, err := lsf.BuildIndex(engine, w.Data)
		if err != nil {
			return nil, err
		}
		t.AddRow(variant.name, ix.Stats().TotalFilters, "-", "-")
	}

	// D2: full SkewSearch in correlated vs adversarial threshold mode on
	// the same workload.
	for _, variant := range []struct {
		name       string
		correlated bool
	}{
		{"D2 p̂-weighted thresholds (§6)", true},
		{"D2 uniform thresholds (§5)", false},
	} {
		var ix *core.Index
		if variant.correlated {
			ix, err = core.BuildCorrelated(d, w.Data, cfg.Alpha, core.Options{Seed: cfg.Seed + 2, Repetitions: cfg.Repetitions})
		} else {
			ix, err = core.BuildAdversarial(d, w.Data, cfg.Alpha/1.3, core.Options{Seed: cfg.Seed + 2, Repetitions: cfg.Repetitions})
		}
		if err != nil {
			return nil, err
		}
		cands, hits := 0, 0
		for qi, q := range w.Queries {
			res := ix.Query(q)
			cands += res.Stats.Candidates
			if res.Found && res.ID == w.Targets[qi] {
				hits++
			}
		}
		qf := float64(cfg.Queries)
		t.AddRow(variant.name, "-", float64(cands)/qf, float64(hits)/qf)
	}
	return t, nil
}
