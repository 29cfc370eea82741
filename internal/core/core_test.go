package core

import (
	"math"
	"sync"
	"testing"

	"skewsim/internal/bitvec"
	"skewsim/internal/bruteforce"
	"skewsim/internal/datagen"
	"skewsim/internal/dist"
)

func TestModeString(t *testing.T) {
	if Adversarial.String() != "adversarial" || Correlated.String() != "correlated" || FixedDepth.String() != "fixed-depth" {
		t.Error("mode names wrong")
	}
	if Mode(9).String() == "" {
		t.Error("unknown mode should still render")
	}
}

func TestBuildValidation(t *testing.T) {
	d := dist.MustProduct(dist.Uniform(100, 0.1))
	data := []bitvec.Vector{bitvec.New(1, 2)}

	if _, err := BuildAdversarial(nil, data, 0.5, Options{}); err == nil {
		t.Error("nil distribution should fail")
	}
	if _, err := BuildAdversarial(d, nil, 0.5, Options{}); err == nil {
		t.Error("empty data should fail")
	}
	for _, b1 := range []float64{0, -1, 1.5} {
		if _, err := BuildAdversarial(d, data, b1, Options{}); err == nil {
			t.Errorf("b1=%v should fail", b1)
		}
	}
	if _, err := BuildCorrelated(nil, data, 0.5, Options{}); err == nil {
		t.Error("nil distribution should fail")
	}
	if _, err := BuildCorrelated(d, nil, 0.5, Options{}); err == nil {
		t.Error("empty data should fail")
	}
	for _, a := range []float64{0, -1, 1.01} {
		if _, err := BuildCorrelated(d, data, a, Options{}); err == nil {
			t.Errorf("alpha=%v should fail", a)
		}
	}
	if _, err := BuildAdversarial(d, data, 0.5, Options{Repetitions: -1}); err == nil {
		t.Error("negative repetitions should fail")
	}
}

func TestIndexAccessors(t *testing.T) {
	d := dist.MustProduct(dist.Uniform(200, 0.1))
	w, err := NewTestCorrelatedWorkload(d, 100, 5, 0.8, 1)
	if err != nil {
		t.Fatal(err)
	}
	ix, err := BuildCorrelated(d, w.Data, 0.8, Options{Seed: 1, Repetitions: 3})
	if err != nil {
		t.Fatal(err)
	}
	if ix.Mode() != Correlated {
		t.Error("mode accessor wrong")
	}
	if got := ix.Threshold(); math.Abs(got-0.8/1.3) > 1e-12 {
		t.Errorf("threshold %v, want α/1.3", got)
	}
	if ix.Repetitions() != 3 {
		t.Errorf("repetitions %d", ix.Repetitions())
	}
	if len(ix.Data()) != 100 {
		t.Error("data accessor wrong")
	}
}

// NewTestCorrelatedWorkload re-exports datagen's workload builder under a
// local name so configuration stays in one place for this package's tests.
func NewTestCorrelatedWorkload(d *dist.Product, n, q int, alpha float64, seed uint64) (*datagen.CorrelatedWorkload, error) {
	return datagen.NewCorrelatedWorkload(d, n, q, alpha, seed)
}

func TestCorrelatedRecallUniform(t *testing.T) {
	// Theorem 1's headline behaviour on a no-skew instance: the planted
	// target must be recovered for nearly every query.
	const (
		n     = 500
		dim   = 1200
		p     = 0.1
		alpha = 0.8
	)
	d := dist.MustProduct(dist.Uniform(dim, p))
	w, err := NewTestCorrelatedWorkload(d, n, 40, alpha, 7)
	if err != nil {
		t.Fatal(err)
	}
	ix, err := BuildCorrelated(d, w.Data, alpha, Options{Seed: 99})
	if err != nil {
		t.Fatal(err)
	}
	recovered := 0
	for k, q := range w.Queries {
		res := ix.Query(q)
		if res.Found && res.ID == w.Targets[k] {
			recovered++
		}
	}
	if rate := float64(recovered) / float64(len(w.Queries)); rate < 0.9 {
		t.Errorf("recall %v, want ≥ 0.9", rate)
	}
}

func TestCorrelatedRecallSkewed(t *testing.T) {
	// The same guarantee must hold under heavy skew (half p, half p/8:
	// Figure 1's profile).
	const (
		n     = 400
		alpha = 2.0 / 3
	)
	profile := dist.Fig1Profile(900, 0.24) // Σp ≈ 121
	d := dist.MustProduct(profile)
	w, err := NewTestCorrelatedWorkload(d, n, 40, alpha, 13)
	if err != nil {
		t.Fatal(err)
	}
	ix, err := BuildCorrelated(d, w.Data, alpha, Options{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	recovered := 0
	for k, q := range w.Queries {
		res := ix.Query(q)
		if res.Found && res.ID == w.Targets[k] {
			recovered++
		}
	}
	if rate := float64(recovered) / float64(len(w.Queries)); rate < 0.9 {
		t.Errorf("recall %v, want ≥ 0.9", rate)
	}
}

func TestCorrelatedNoFalsePositivesAboveThreshold(t *testing.T) {
	// Any returned vector must genuinely meet the verification threshold.
	d := dist.MustProduct(dist.Uniform(1000, 0.1))
	w, _ := NewTestCorrelatedWorkload(d, 300, 30, 0.7, 3)
	ix, err := BuildCorrelated(d, w.Data, 0.7, Options{Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range w.Queries {
		res := ix.Query(q)
		if res.Found {
			if got := bitvec.BraunBlanquet(q, w.Data[res.ID]); got < ix.Threshold()-1e-9 {
				t.Errorf("returned similarity %v below threshold %v", got, ix.Threshold())
			}
		}
	}
}

func TestAdversarialRecall(t *testing.T) {
	const (
		n  = 400
		b1 = 0.6
	)
	d := dist.MustProduct(dist.Uniform(1000, 0.12))
	w, err := datagen.NewAdversarialWorkload(d, n, 40, b1, 21)
	if err != nil {
		t.Fatal(err)
	}
	ix, err := BuildAdversarial(d, w.Data, b1, Options{Seed: 31})
	if err != nil {
		t.Fatal(err)
	}
	found := 0
	for k, q := range w.Queries {
		res := ix.Query(q)
		if res.Found {
			found++
			if got := bitvec.BraunBlanquet(q, w.Data[res.ID]); got < b1-1e-9 {
				t.Errorf("query %d: returned sim %v below b1", k, got)
			}
		}
	}
	// Theorem 2 promises per-instance success ≥ 1/2 after boosting; with
	// log n repetitions the empirical rate should be near-perfect.
	if rate := float64(found) / float64(len(w.Queries)); rate < 0.85 {
		t.Errorf("adversarial recall %v, want ≥ 0.85", rate)
	}
}

func TestAdversarialSkewedQueryCheaperThanUniform(t *testing.T) {
	// §7.1's message: at equal b1, Σp and |q|, a distribution with very
	// rare tokens gives a much smaller exponent. Here theory predicts
	// ρ ≈ 0.31 for uniform p = 0.25 versus ρ ≈ 0.13 for the two-block
	// profile with half the mass on p = 0.0025 tokens, so candidate
	// counts should separate clearly.
	const n = 600
	b1 := 0.65

	uniform := dist.MustProduct(dist.Uniform(720, 0.25))                // Σp = 180
	skewed := dist.MustProduct(dist.TwoBlock(360, 0.25, 36000, 0.0025)) // Σp = 90+90 = 180

	costs := make(map[string]float64)
	for name, d := range map[string]*dist.Product{"uniform": uniform, "skewed": skewed} {
		w, err := datagen.NewAdversarialWorkload(d, n, 30, b1, 17)
		if err != nil {
			t.Fatal(err)
		}
		ix, err := BuildAdversarial(d, w.Data, b1, Options{Seed: 4, Repetitions: 6})
		if err != nil {
			t.Fatal(err)
		}
		total := 0
		for _, q := range w.Queries {
			res := ix.QueryBest(q)
			total += res.Stats.Candidates
		}
		costs[name] = float64(total) / 30
	}
	t.Logf("mean candidates: uniform %v, skewed %v", costs["uniform"], costs["skewed"])
	if costs["skewed"] >= costs["uniform"] {
		t.Errorf("skewed queries (%v) should be cheaper than uniform (%v)", costs["skewed"], costs["uniform"])
	}
}

func TestQueryDeterministic(t *testing.T) {
	d := dist.MustProduct(dist.Uniform(600, 0.1))
	w, _ := NewTestCorrelatedWorkload(d, 200, 10, 0.7, 5)
	ix1, err := BuildCorrelated(d, w.Data, 0.7, Options{Seed: 42, Repetitions: 4})
	if err != nil {
		t.Fatal(err)
	}
	ix2, err := BuildCorrelated(d, w.Data, 0.7, Options{Seed: 42, Repetitions: 4})
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range w.Queries {
		r1, r2 := ix1.Query(q), ix2.Query(q)
		if r1.Found != r2.Found || r1.ID != r2.ID || r1.Stats != r2.Stats {
			t.Fatal("same seed produced different query results")
		}
	}
}

func TestQueryEmptyVector(t *testing.T) {
	d := dist.MustProduct(dist.Uniform(300, 0.1))
	w, _ := NewTestCorrelatedWorkload(d, 100, 1, 0.7, 9)
	ix, err := BuildCorrelated(d, w.Data, 0.7, Options{Seed: 2, Repetitions: 2})
	if err != nil {
		t.Fatal(err)
	}
	res := ix.Query(bitvec.New())
	if res.Found {
		t.Error("empty query should find nothing")
	}
}

func TestFallbackOnTruncation(t *testing.T) {
	// Force truncation with an absurdly small work budget; the index must
	// fall back to a linear scan and still answer correctly.
	d := dist.MustProduct(dist.Uniform(800, 0.12))
	w, _ := NewTestCorrelatedWorkload(d, 150, 10, 0.9, 11)
	ix, err := BuildCorrelated(d, w.Data, 0.9, Options{
		Seed:                3,
		Repetitions:         2,
		MaxFiltersPerVector: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	sawFallback := false
	for k, q := range w.Queries {
		res := ix.Query(q)
		if res.Stats.FellBack > 0 {
			sawFallback = true
			if !res.Found || res.ID != w.Targets[k] {
				t.Errorf("fallback failed to recover planted target")
			}
		}
	}
	if !sawFallback {
		t.Skip("budget did not truncate; configuration too generous")
	}
}

func TestQueryBestReturnsPlantedPair(t *testing.T) {
	d := dist.MustProduct(dist.Uniform(1000, 0.1))
	w, _ := NewTestCorrelatedWorkload(d, 300, 25, 0.8, 15)
	ix, err := BuildCorrelated(d, w.Data, 0.8, Options{Seed: 77})
	if err != nil {
		t.Fatal(err)
	}
	hit := 0
	for k, q := range w.Queries {
		res := ix.QueryBest(q)
		if res.Found && res.ID == w.Targets[k] {
			hit++
		}
	}
	if rate := float64(hit) / float64(len(w.Queries)); rate < 0.9 {
		t.Errorf("QueryBest recall %v", rate)
	}
}

func TestPredictedQueryRho(t *testing.T) {
	d := dist.MustProduct(dist.Uniform(600, 0.1))
	w, _ := NewTestCorrelatedWorkload(d, 200, 2, 0.7, 19)

	corr, err := BuildCorrelated(d, w.Data, 0.7, Options{Seed: 1, Repetitions: 2})
	if err != nil {
		t.Fatal(err)
	}
	r1, err := corr.PredictedQueryRho(w.Queries[0])
	if err != nil {
		t.Fatal(err)
	}
	// Uniform closed form: log(p̂)/log(p).
	want := math.Log(0.1*0.3+0.7) / math.Log(0.1)
	if math.Abs(r1-want) > 1e-6 {
		t.Errorf("correlated rho %v, want %v", r1, want)
	}

	adv, err := BuildAdversarial(d, w.Data, 0.5, Options{Seed: 1, Repetitions: 2})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := adv.PredictedQueryRho(w.Queries[0])
	if err != nil {
		t.Fatal(err)
	}
	wantAdv := math.Log(0.5) / math.Log(0.1)
	if math.Abs(r2-wantAdv) > 1e-6 {
		t.Errorf("adversarial rho %v, want %v", r2, wantAdv)
	}
}

func TestStatsAccumulate(t *testing.T) {
	d := dist.MustProduct(dist.Uniform(600, 0.1))
	w, _ := NewTestCorrelatedWorkload(d, 200, 5, 0.7, 23)
	ix, err := BuildCorrelated(d, w.Data, 0.7, Options{Seed: 6, Repetitions: 5})
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range w.Queries {
		res := ix.QueryBest(q)
		if res.Stats.Reps != 5 {
			t.Errorf("QueryBest must touch all repetitions, got %d", res.Stats.Reps)
		}
		if res.Stats.Distinct > res.Stats.Candidates {
			t.Error("distinct exceeds candidates")
		}
	}
}

func TestBruteForceTopKExactness(t *testing.T) {
	d := dist.MustProduct(dist.Uniform(900, 0.1))
	w, err := NewTestCorrelatedWorkload(d, 300, 1, 0.8, 53)
	if err != nil {
		t.Fatal(err)
	}
	bf, err := bruteforce.Build(w.Data, bruteforce.Options{})
	if err != nil {
		t.Fatal(err)
	}
	q := w.Queries[0]
	m := bf.QueryTopK(q, 10)
	for i := 1; i < len(m); i++ {
		if m[i-1].Similarity < m[i].Similarity {
			t.Fatal("ground truth not sorted")
		}
	}
	if bf.QueryTopK(q, 0) != nil {
		t.Error("k=0 should return nil")
	}
}

// TestConcurrentQueriesAreSafe exercises read-only query concurrency on a
// shared index (run with -race to catch violations).
func TestConcurrentQueriesAreSafe(t *testing.T) {
	d := dist.MustProduct(dist.Uniform(900, 0.1))
	w, err := NewTestCorrelatedWorkload(d, 300, 25, 0.8, 53)
	if err != nil {
		t.Fatal(err)
	}
	ix, err := BuildCorrelated(d, w.Data, 0.8, Options{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	results := make([][]int, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for _, q := range w.Queries {
				res := ix.Query(q)
				results[g] = append(results[g], res.ID)
				ix.QueryBest(q)
				ix.Candidates(q)
			}
		}(g)
	}
	wg.Wait()
	for g := 1; g < 8; g++ {
		for i := range results[0] {
			if results[g][i] != results[0][i] {
				t.Fatal("concurrent queries returned inconsistent results")
			}
		}
	}
}
