package experiments

import (
	"fmt"
	"math"

	"skewsim/internal/bruteforce"
	"skewsim/internal/core"
	"skewsim/internal/datagen"
	"skewsim/internal/dist"
	"skewsim/internal/prefix"
	"skewsim/internal/rho"
	"skewsim/internal/stats"
)

// ScalingConfig parameterizes the empirical scaling study.
type ScalingConfig struct {
	Ns          []int   // dataset sizes (geometric axis)
	B1          float64 // similarity threshold of the adversarial search
	C           float64 // model constant: Σp = C·ln n
	PA          float64 // frequent-block probability
	RareExp     float64 // rare-block probability = n^-RareExp (§7.1 uses 0.9)
	Queries     int     // queries measured per n
	Repetitions int     // filter instances for both LSF structures
	Seed        uint64
}

// DefaultScalingConfig reproduces the first §7.1 worked example (half the
// query mass on p = 1/4, half on p = n^-0.9, b1 = 1/3), where the
// predicted exponents separate widely: SkewSearch ≈ 0.29, Chosen Path
// ≈ 0.53, prefix filtering ≈ 0.1, brute force 1.
func DefaultScalingConfig() ScalingConfig {
	return ScalingConfig{
		Ns:          []int{500, 1000, 2000, 4000},
		B1:          1.0 / 3,
		C:           20,
		PA:          0.25,
		RareExp:     0.9,
		Queries:     30,
		Repetitions: 8,
		Seed:        97,
	}
}

// Scaling is the library's empirical validation of Theorem 2 against the
// baselines: planted adversarial queries on the §7.1 two-block profile,
// measuring the mean number of candidate occurrences per query (the
// quantity Lemma 7 bounds by n^ρ) for SkewSearch, Chosen Path, prefix
// filtering, and brute force, then fitting empirical exponents against
// the ρ equations. The expected ordering at these exponents:
// prefix < SkewSearch < Chosen Path < brute force, with SkewSearch and
// prefix trading places once all probabilities are Ω(1) (see fig1).
func Scaling(cfg ScalingConfig) (*Table, error) {
	if len(cfg.Ns) < 2 || cfg.Queries < 1 || cfg.Repetitions < 1 {
		return nil, fmt.Errorf("experiments: invalid scaling config %+v", cfg)
	}
	t := &Table{
		Title: fmt.Sprintf("Scaling (§7.1 instance): mean candidates/query vs n (pa=%.2f, pb=n^-%.1f, b1=%.3f, C=%.0f, reps=%d)",
			cfg.PA, cfg.RareExp, cfg.B1, cfg.C, cfg.Repetitions),
		Columns: []string{"n", "SkewSearch", "ChosenPath", "PrefixFilter", "BruteForce", "recall(SkewSearch)", "recall(ChosenPath)"},
		Notes: []string{
			"success criteria: exponent(SkewSearch) < exponent(ChosenPath) < exponent(BruteForce)=1; recalls high",
			"prefix filtering degenerates at this permissive b1 (prefixes are 2/3 of each set, so frequent tokens flood the lists);",
			"the paper's Omega(n^0.1) for it is a best-case lower bound (rarest-token probe), reported below as 'predicted prefix exponent'",
		},
	}

	costSkew := make([]float64, 0, len(cfg.Ns))
	costCP := make([]float64, 0, len(cfg.Ns))
	costPF := make([]float64, 0, len(cfg.Ns))
	costBF := make([]float64, 0, len(cfg.Ns))

	for idx, n := range cfg.Ns {
		logn := math.Log(float64(n))
		pb := math.Pow(float64(n), -cfg.RareExp)
		// Equal mass per block: na·pa = nb·pb = C·ln n / 2.
		na := int(math.Ceil(cfg.C * logn / (2 * cfg.PA)))
		nb := int(math.Ceil(cfg.C * logn / (2 * pb)))
		probs := dist.TwoBlock(na, cfg.PA, nb, pb)
		d := dist.MustProduct(probs)
		w, err := datagen.NewAdversarialWorkload(d, n, cfg.Queries, cfg.B1, cfg.Seed+uint64(idx))
		if err != nil {
			return nil, fmt.Errorf("experiments: scaling n=%d: %w", n, err)
		}

		skew, err := core.BuildAdversarial(d, w.Data, cfg.B1, core.Options{
			Seed: cfg.Seed + 1000, Repetitions: cfg.Repetitions,
		})
		if err != nil {
			return nil, fmt.Errorf("experiments: scaling n=%d: %w", n, err)
		}
		b2 := d.ExpectedBraunBlanquet()
		cp, err := core.BuildChosenPath(w.Data, cfg.B1, b2, core.Options{
			Seed: cfg.Seed + 2000, Repetitions: cfg.Repetitions,
		})
		if err != nil {
			return nil, fmt.Errorf("experiments: scaling n=%d: %w", n, err)
		}
		pf, err := prefix.Build(w.Data, probs, cfg.B1, prefix.Options{})
		if err != nil {
			return nil, fmt.Errorf("experiments: scaling n=%d: %w", n, err)
		}
		bf, err := bruteforce.Build(w.Data, bruteforce.Options{})
		if err != nil {
			return nil, fmt.Errorf("experiments: scaling n=%d: %w", n, err)
		}

		var cSkew, cCP, cPF, cBF float64
		hitSkew, hitCP := 0, 0
		for _, q := range w.Queries {
			rs := skew.QueryBest(q)
			cSkew += float64(rs.Stats.Candidates)
			if rs.Found && rs.Similarity >= cfg.B1-1e-9 {
				hitSkew++
			}
			rc := cp.QueryBest(q)
			cCP += float64(rc.Stats.Candidates)
			if rc.Found && rc.Similarity >= cfg.B1-1e-9 {
				hitCP++
			}
			rp := pf.QueryBest(q)
			cPF += float64(rp.Stats.Candidates)
			rb := bf.QueryBest(q)
			cBF += float64(rb.Stats.Candidates)
		}
		qf := float64(cfg.Queries)
		cSkew, cCP, cPF, cBF = cSkew/qf, cCP/qf, cPF/qf, cBF/qf
		costSkew = append(costSkew, cSkew)
		costCP = append(costCP, cCP)
		costPF = append(costPF, cPF)
		costBF = append(costBF, cBF)
		t.AddRow(n, cSkew, cCP, cPF, cBF, float64(hitSkew)/qf, float64(hitCP)/qf)
	}

	appendFit := func(name string, costs []float64) {
		fit, err := stats.FitExponent(cfg.Ns, costs)
		if err != nil {
			t.Notes = append(t.Notes, fmt.Sprintf("%s: exponent fit failed: %v", name, err))
			return
		}
		t.Notes = append(t.Notes, fmt.Sprintf("fitted exponent %s: %.3f (R²=%.3f)", name, fit.Slope, fit.R2))
	}
	appendFit("SkewSearch", costSkew)
	appendFit("ChosenPath", costCP)
	appendFit("PrefixFilter", costPF)
	appendFit("BruteForce", costBF)

	// Predicted exponents at the largest n.
	nMax := cfg.Ns[len(cfg.Ns)-1]
	pbMax := math.Pow(float64(nMax), -cfg.RareExp)
	// Equal-mass blocks put equal numbers of frequent and rare bits in a
	// typical query, so the query composition has equal weights.
	ts := rho.Terms{{P: cfg.PA, W: 1}, {P: pbMax, W: 1}}
	if r, err := rho.AdversarialQueryRho(ts, cfg.B1); err == nil {
		t.Notes = append(t.Notes, fmt.Sprintf("predicted rho SkewSearch: %.3f", r))
	}
	if r, err := rho.ChosenPathRho(cfg.B1, ts.SumP()/ts.Count()); err == nil {
		t.Notes = append(t.Notes, fmt.Sprintf("predicted rho ChosenPath: %.3f", r))
	}
	if r, err := rho.PrefixFilterExponent(ts, float64(nMax)); err == nil {
		t.Notes = append(t.Notes, fmt.Sprintf("predicted prefix exponent: %.3f", r))
	}
	return t, nil
}
