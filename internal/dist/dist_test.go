package dist

import (
	"math"
	"testing"

	"skewsim/internal/bitvec"
	"skewsim/internal/hashing"
)

func TestNewProductValidation(t *testing.T) {
	if _, err := NewProduct(nil); err == nil {
		t.Error("empty vector accepted")
	}
	for _, bad := range [][]float64{{-0.1}, {1.1}, {0.5, math.NaN()}} {
		if _, err := NewProduct(bad); err == nil {
			t.Errorf("invalid probs %v accepted", bad)
		}
	}
	d, err := NewProduct([]float64{0, 0.5, 1})
	if err != nil {
		t.Fatal(err)
	}
	if d.Dim() != 3 || d.P(1) != 0.5 {
		t.Errorf("Dim/P wrong: %d, %v", d.Dim(), d.P(1))
	}
}

func TestProductIsImmutable(t *testing.T) {
	probs := []float64{0.1, 0.2, 0.3}
	d := MustProduct(probs)
	probs[0] = 0.9
	if d.P(0) != 0.1 {
		t.Error("NewProduct retained the caller's slice")
	}
	d.Probs()[1] = 0.9
	if d.P(1) != 0.2 {
		t.Error("Probs() exposed the internal slice")
	}
}

func TestProductMoments(t *testing.T) {
	d := MustProduct([]float64{0.5, 0.25, 0.25})
	if got := d.ExpectedSize(); math.Abs(got-1.0) > 1e-12 {
		t.Errorf("ExpectedSize = %v", got)
	}
	// Σp² = 0.25 + 0.0625 + 0.0625 = 0.375; b2 = 0.375.
	if got := d.ExpectedBraunBlanquet(); math.Abs(got-0.375) > 1e-12 {
		t.Errorf("ExpectedBraunBlanquet = %v", got)
	}
	alpha := 0.5
	want := alpha + (1-alpha)*0.375
	if got := d.ExpectedCorrelatedBraunBlanquet(alpha); math.Abs(got-want) > 1e-12 {
		t.Errorf("ExpectedCorrelatedBraunBlanquet = %v, want %v", got, want)
	}
	if got := d.C(100); math.Abs(got-1/math.Log(100)) > 1e-12 {
		t.Errorf("C(100) = %v", got)
	}
	if got := d.C(1); got != 0 {
		t.Errorf("C(1) = %v, want 0", got)
	}
	phat := d.ConditionalProbs(alpha)
	for i, p := range []float64{0.5, 0.25, 0.25} {
		want := p*(1-alpha) + alpha
		if math.Abs(phat[i]-want) > 1e-12 {
			t.Errorf("phat[%d] = %v, want %v", i, phat[i], want)
		}
	}
}

// profilesInRange checks every documented profile stays in [0, 1] and is
// sorted (non-increasing) where the spectrum semantics promise it.
func TestProfilesInRangeAndSorted(t *testing.T) {
	cases := []struct {
		name   string
		probs  []float64
		sorted bool
	}{
		{"Uniform", Uniform(500, 0.3), true},
		{"Zipf", Zipf(500, 1, 0.7), true},
		{"Harmonic", Harmonic(500), true},
		{"TwoBlock", TwoBlock(100, 0.4, 400, 0.01), true},
		{"Fig1Profile", Fig1Profile(501, 0.25), true},
		{"PiecewiseZipf", PiecewiseZipf(500, 0.5, []PiecewiseZipfSegment{
			{FracEnd: 0.3, S: 0.4}, {FracEnd: 1, S: 1.5},
		}), true},
		{"PiecewiseZipfDefault", PiecewiseZipf(200, 0.9, nil), true},
	}
	for _, c := range cases {
		for i, p := range c.probs {
			if math.IsNaN(p) || p < 0 || p > 1 {
				t.Fatalf("%s[%d] = %v outside [0, 1]", c.name, i, p)
			}
			if c.sorted && i > 0 && p > c.probs[i-1]+1e-15 {
				t.Fatalf("%s increases at %d: %v > %v", c.name, i, p, c.probs[i-1])
			}
		}
		if _, err := NewProduct(c.probs); err != nil {
			t.Errorf("%s not a valid Product: %v", c.name, err)
		}
	}
}

func TestFig1ProfileShape(t *testing.T) {
	probs := Fig1Profile(900, 0.24)
	if probs[0] != 0.24 || probs[449] != 0.24 {
		t.Error("head half should be p")
	}
	if probs[450] != 0.03 || probs[899] != 0.03 {
		t.Error("tail half should be p/8")
	}
	// Σp ≈ 121.5, the constant core tests rely on.
	sum := 0.0
	for _, p := range probs {
		sum += p
	}
	if math.Abs(sum-121.5) > 1e-9 {
		t.Errorf("mass %v, want 121.5", sum)
	}
}

func TestPiecewiseZipfContinuity(t *testing.T) {
	probs := PiecewiseZipf(1000, 0.5, []PiecewiseZipfSegment{
		{FracEnd: 0.4, S: 0.5}, {FracEnd: 1, S: 1.3},
	})
	if probs[0] != 0.5 {
		t.Errorf("head = %v, want pMax", probs[0])
	}
	// The second segment starts at the value the first ended on.
	if probs[400] != probs[399] {
		t.Errorf("discontinuity at segment boundary: %v vs %v", probs[400], probs[399])
	}
}

func TestClamp(t *testing.T) {
	got := Clamp([]float64{-0.5, 0.3, 1.7}, 0.1)
	want := []float64{0.1, 0.3, 1}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("Clamp[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}

// TestSampleMarginals: the geometric-skip sampler must reproduce the item
// marginals, including across run boundaries and for p ∈ {0, 1}.
func TestSampleMarginals(t *testing.T) {
	d := MustProduct([]float64{1, 0.5, 0.5, 0.5, 0, 0.05, 0.05, 0.05, 0.05})
	rng := hashing.NewSplitMix64(42)
	const n = 20000
	counts := make([]int, d.Dim())
	for s := 0; s < n; s++ {
		x := d.Sample(rng)
		prev := int64(-1)
		for _, b := range x.Bits() {
			if int64(b) <= prev {
				t.Fatal("sample bits not sorted distinct")
			}
			prev = int64(b)
			counts[b]++
		}
	}
	for i := 0; i < d.Dim(); i++ {
		got := float64(counts[i]) / n
		tol := 4*math.Sqrt(d.P(i)*(1-d.P(i))/n) + 1e-9
		if math.Abs(got-d.P(i)) > tol {
			t.Errorf("item %d: marginal %v, want %v ± %v", i, got, d.P(i), tol)
		}
	}
}

func TestEstimateProductRoundTrip(t *testing.T) {
	d := MustProduct(TwoBlock(50, 0.4, 450, 0.02))
	rng := hashing.NewSplitMix64(7)
	const n = 12000
	data := d.SampleN(rng, n)
	est, err := EstimateProduct(data, d.Dim())
	if err != nil {
		t.Fatal(err)
	}
	if est.Dim() != d.Dim() {
		t.Fatalf("dim %d, want %d", est.Dim(), d.Dim())
	}
	for i := 0; i < d.Dim(); i++ {
		p := d.P(i)
		tol := 5*math.Sqrt(p*(1-p)/n) + 1e-3
		if math.Abs(est.P(i)-p) > tol {
			t.Errorf("item %d: estimated %v, want %v ± %v", i, est.P(i), p, tol)
		}
	}
}

func TestEstimateProductInfersDimension(t *testing.T) {
	data := []bitvec.Vector{bitvec.New(0, 7), bitvec.New(3)}
	est, err := EstimateProduct(data, 0)
	if err != nil {
		t.Fatal(err)
	}
	if est.Dim() != 8 {
		t.Errorf("inferred dim %d, want 8", est.Dim())
	}
	if math.Abs(est.P(7)-0.5) > 1e-12 || math.Abs(est.P(3)-0.5) > 1e-12 {
		t.Error("frequencies miscounted")
	}
	if _, err := EstimateProduct(nil, 0); err == nil {
		t.Error("empty data accepted")
	}
}

func TestSampleCorrelatedMarginals(t *testing.T) {
	d := MustProduct(Uniform(300, 0.1))
	rng := hashing.NewSplitMix64(11)
	x := d.Sample(rng)
	for x.Len() < 10 { // ensure a meaningful overlap measurement
		x = d.Sample(rng)
	}
	const alpha = 2.0 / 3
	const n = 4000
	keptFrac, noiseLen := 0.0, 0.0
	for s := 0; s < n; s++ {
		q := d.SampleCorrelated(rng, x, alpha)
		prev := int64(-1)
		inter := 0
		for _, b := range q.Bits() {
			if int64(b) <= prev {
				t.Fatal("correlated sample bits not sorted distinct")
			}
			prev = int64(b)
			if x.Contains(b) {
				inter++
			}
		}
		keptFrac += float64(inter) / float64(x.Len())
		noiseLen += float64(q.Len() - inter)
	}
	keptFrac /= n
	noiseLen /= n
	wantKept := alpha + (1-alpha)*0.1
	if math.Abs(keptFrac-wantKept) > 0.02 {
		t.Errorf("kept fraction %v, want ≈ %v", keptFrac, wantKept)
	}
	wantNoise := (1 - alpha) * 0.1 * float64(d.Dim()-x.Len())
	if math.Abs(noiseLen-wantNoise) > 0.05*wantNoise+0.5 {
		t.Errorf("noise bits %v, want ≈ %v", noiseLen, wantNoise)
	}
}

// TestIndependenceRatioOnIndependentData: ≈ 1 by construction when the
// data really is a product sample, in both variants.
func TestIndependenceRatioOnIndependentData(t *testing.T) {
	d := MustProduct(PiecewiseZipf(250, 0.4, []PiecewiseZipfSegment{
		{FracEnd: 0.5, S: 0.4}, {FracEnd: 1, S: 0.9},
	}))
	rng := hashing.NewSplitMix64(19)
	data := d.SampleN(rng, 5000)
	for _, k := range []int{2, 3} {
		r := IndependenceRatio(data, d.Dim(), k, 800, 23)
		if r < 0.8 || r > 1.2 {
			t.Errorf("uniform subsets, |I|=%d: ratio %v, want ≈ 1", k, r)
		}
		rw := IndependenceRatioWeighted(data, d.Dim(), k, 800, 29)
		if rw < 0.8 || rw > 1.2 {
			t.Errorf("weighted subsets, |I|=%d: ratio %v, want ≈ 1", k, rw)
		}
	}
}

func TestIndependenceRatioDegenerateInputs(t *testing.T) {
	if r := IndependenceRatio(nil, 10, 2, 100, 1); r != 1 {
		t.Errorf("empty data ratio %v, want 1", r)
	}
	data := []bitvec.Vector{bitvec.New(), bitvec.New()}
	if r := IndependenceRatioWeighted(data, 5, 2, 100, 1); r != 1 {
		t.Errorf("all-zero data ratio %v, want 1", r)
	}
}

func TestPiecewiseZipfDegenerateFirstSegment(t *testing.T) {
	// A FracEnd = 0 first segment must be skipped, not panic.
	probs := PiecewiseZipf(10, 0.5, []PiecewiseZipfSegment{
		{FracEnd: 0, S: 1}, {FracEnd: 1, S: 1},
	})
	if probs[0] != 0.5 {
		t.Errorf("head = %v, want pMax", probs[0])
	}
	for i := 1; i < len(probs); i++ {
		if probs[i] > probs[i-1] {
			t.Fatalf("not non-increasing at %d", i)
		}
	}
}
