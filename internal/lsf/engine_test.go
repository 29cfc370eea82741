package lsf

import (
	"math"
	"testing"

	"skewsim/internal/bitvec"
	"skewsim/internal/dist"
)

// constThreshold returns a ThresholdFunc that ignores its arguments.
func constThreshold(s float64) ThresholdFunc {
	return func(bitvec.Vector, int, uint32) float64 { return s }
}

func uniformEngine(t *testing.T, n int, p float64, dim int, s float64, seed uint64) *Engine {
	t.Helper()
	e, err := NewEngine(n, Params{
		Seed:      seed,
		Probs:     dist.Uniform(dim, p),
		Threshold: constThreshold(s),
		Stop:      ProductStopRule(n),
	})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestNewEngineValidation(t *testing.T) {
	good := Params{
		Threshold: constThreshold(0.5),
		Stop:      ProductStopRule(100),
		Probs:     []float64{0.5},
	}
	if _, err := NewEngine(100, good); err != nil {
		t.Fatalf("valid params rejected: %v", err)
	}

	bad := good
	bad.Threshold = nil
	if _, err := NewEngine(100, bad); err == nil {
		t.Error("nil threshold should fail")
	}
	bad = good
	bad.Stop = nil
	if _, err := NewEngine(100, bad); err == nil {
		t.Error("nil stop rule should fail")
	}
	bad = good
	bad.Probs = []float64{1.5}
	if _, err := NewEngine(100, bad); err == nil {
		t.Error("probability > 1 should fail")
	}
	bad = good
	bad.MaxDepth = -1
	if _, err := NewEngine(100, bad); err == nil {
		t.Error("negative depth should fail")
	}
	bad = good
	bad.MaxFiltersPerVector = -5
	if _, err := NewEngine(100, bad); err == nil {
		t.Error("negative budget should fail")
	}
}

func TestDefaultMaxDepth(t *testing.T) {
	if got := DefaultMaxDepth(1024); got != 13 {
		t.Errorf("DefaultMaxDepth(1024) = %d, want 13", got)
	}
	if got := DefaultMaxDepth(1); got != 3 {
		t.Errorf("DefaultMaxDepth(1) = %d", got)
	}
}

func TestProductStopRule(t *testing.T) {
	stop := ProductStopRule(100)
	logN := math.Log(100)
	if stop(logN-0.01, 5) {
		t.Error("should not stop before product reaches 1/n")
	}
	if !stop(logN, 1) || !stop(logN+5, 2) {
		t.Error("should stop at/after product 1/n")
	}
}

func TestFixedDepthStopRule(t *testing.T) {
	stop := FixedDepthStopRule(3)
	if stop(1e9, 2) {
		t.Error("fixed-depth rule must ignore probabilities")
	}
	if !stop(0, 3) {
		t.Error("should stop at length k")
	}
}

func TestFiltersEmptyVector(t *testing.T) {
	e := uniformEngine(t, 100, 0.25, 50, 0.5, 1)
	fs := e.Filters(bitvec.New())
	if len(fs.Paths) != 0 || fs.Truncated {
		t.Errorf("empty vector should have no filters: %+v", fs)
	}
}

func TestFiltersDeterministic(t *testing.T) {
	x := bitvec.New(1, 5, 9, 13, 22, 30)
	a := uniformEngine(t, 200, 0.25, 50, 0.8, 42).Filters(x)
	b := uniformEngine(t, 200, 0.25, 50, 0.8, 42).Filters(x)
	if len(a.Paths) != len(b.Paths) {
		t.Fatalf("same seed, different filter counts: %d vs %d", len(a.Paths), len(b.Paths))
	}
	for i := range a.Paths {
		if PathKey(a.Paths[i]) != PathKey(b.Paths[i]) {
			t.Fatal("same seed, different paths")
		}
	}
}

func TestFiltersSeedSensitivity(t *testing.T) {
	x := bitvec.New(1, 5, 9, 13, 22, 30, 35, 41)
	a := uniformEngine(t, 200, 0.25, 50, 0.8, 1).Filters(x)
	b := uniformEngine(t, 200, 0.25, 50, 0.8, 2).Filters(x)
	same := 0
	bKeys := make(map[string]bool)
	for _, p := range b.Paths {
		bKeys[PathKey(p)] = true
	}
	for _, p := range a.Paths {
		if bKeys[PathKey(p)] {
			same++
		}
	}
	if len(a.Paths) > 3 && same == len(a.Paths) {
		t.Error("different seeds produced identical filter sets")
	}
}

func TestFilterPathInvariants(t *testing.T) {
	// Every emitted path must (1) consist of distinct elements of x,
	// (2) satisfy the stopping rule, and (3) be minimal: the proper
	// prefix must NOT satisfy it (otherwise recursion continued past a
	// completed filter).
	n := 500
	p := 0.25
	probs := dist.Uniform(64, p)
	e, err := NewEngine(n, Params{
		Seed:      7,
		Probs:     probs,
		Threshold: constThreshold(0.7),
		Stop:      ProductStopRule(n),
	})
	if err != nil {
		t.Fatal(err)
	}
	x := bitvec.New(0, 3, 7, 12, 20, 33, 40, 55, 63)
	fs := e.Filters(x)
	if len(fs.Paths) == 0 {
		t.Fatal("expected some filters with these parameters")
	}
	logN := math.Log(float64(n))
	for _, path := range fs.Paths {
		seen := map[uint32]bool{}
		logInv := 0.0
		for k, el := range path {
			if seen[el] {
				t.Fatalf("path %v repeats element %d (sampling must be without replacement)", path, el)
			}
			seen[el] = true
			if !x.Contains(el) {
				t.Fatalf("path %v contains element %d not in x", path, el)
			}
			logInv += -math.Log(p)
			complete := logInv >= logN
			isLast := k == len(path)-1
			if complete && !isLast {
				t.Fatalf("path %v continued past completion at position %d", path, k)
			}
			if isLast && !complete {
				t.Fatalf("path %v emitted before completion", path)
			}
		}
	}
}

func TestFiltersExpectedCountMatchesLemma6(t *testing.T) {
	// With uniform probabilities p and constant threshold s, Lemma 6's
	// recursion gives E[|F_j|] ≈ (|x|·s)^j for paths of length j, and the
	// stopping rule fires at length L = ceil(ln n / ln(1/p)). So
	// E[|F(x)|] ≈ (|x|·s)^L when |x|s > 1. Check order of magnitude over
	// many seeds.
	n := 1000
	p := 0.25 // L = ceil(ln 1000 / ln 4) = 5
	dim := 40
	m := 20 // |x|
	s := 0.1
	L := int(math.Ceil(math.Log(float64(n)) / math.Log(1/p)))
	want := math.Pow(float64(m)*s, float64(L))

	x := bitvec.New(func() []uint32 {
		bits := make([]uint32, m)
		for i := range bits {
			bits[i] = uint32(i * 2)
		}
		return bits
	}()...)
	_ = dim

	total := 0
	const trials = 400
	for seed := 0; seed < trials; seed++ {
		e := uniformEngine(t, n, p, dim, s, uint64(seed))
		total += len(e.Filters(x).Paths)
	}
	got := float64(total) / trials
	// Sampling without replacement shrinks branch choices slightly, so
	// the observed mean sits just below the with-replacement estimate.
	if got > want*1.3 || got < want*0.3 {
		t.Errorf("mean |F(x)| = %v, want within [0.3, 1.3]× %v", got, want)
	}
}

func TestFiltersZeroThresholdNoFilters(t *testing.T) {
	e := uniformEngine(t, 100, 0.25, 50, 0, 3)
	fs := e.Filters(bitvec.New(1, 2, 3, 4, 5))
	if len(fs.Paths) != 0 {
		t.Errorf("threshold 0 should produce no filters, got %d", len(fs.Paths))
	}
}

func TestFiltersThresholdOneDeterministicBlowup(t *testing.T) {
	// s = 1 extends every path with every unused element: with m bits and
	// stop after L steps there are exactly m!/(m-L)! filters.
	n := 60 // ln 60 / ln 4 → L = 3
	e := uniformEngine(t, n, 0.25, 10, 1, 5)
	x := bitvec.New(0, 1, 2, 3)
	fs := e.Filters(x)
	want := 4 * 3 * 2
	if len(fs.Paths) != want {
		t.Errorf("got %d filters, want %d", len(fs.Paths), want)
	}
}

func TestFiltersBudgetTruncation(t *testing.T) {
	n := 1 << 16
	e, err := NewEngine(n, Params{
		Seed:                1,
		Probs:               dist.Uniform(64, 0.5),
		Threshold:           constThreshold(1),
		Stop:                ProductStopRule(n),
		MaxFiltersPerVector: 100,
	})
	if err != nil {
		t.Fatal(err)
	}
	bits := make([]uint32, 30)
	for i := range bits {
		bits[i] = uint32(i)
	}
	fs := e.Filters(bitvec.New(bits...))
	if !fs.Truncated {
		t.Error("expected truncation with tiny budget and s=1")
	}
}

func TestFiltersZeroProbabilityElementCompletesImmediately(t *testing.T) {
	// An element with p=0 (or beyond the probs slice) makes any path
	// containing it complete instantly.
	n := 1000
	probs := []float64{0.5, 0} // element 1 has p = 0; element 7 out of range
	e, err := NewEngine(n, Params{
		Seed:      2,
		Probs:     probs,
		Threshold: constThreshold(1),
		Stop:      ProductStopRule(n),
	})
	if err != nil {
		t.Fatal(err)
	}
	fs := e.Filters(bitvec.New(1, 7))
	for _, p := range fs.Paths {
		if len(p) != 1 {
			t.Errorf("path %v should have completed at length 1", p)
		}
	}
	if len(fs.Paths) != 2 {
		t.Errorf("want 2 singleton filters, got %v", fs.Paths)
	}
}

// TestEngineLogInvMatchesProbs: the stopping rule's per-element
// information content is log(1/p_i), infinite for p_i = 0.
func TestEngineLogInvMatchesProbs(t *testing.T) {
	e, err := NewEngine(10, Params{
		Probs:     []float64{0.5, 0.25, 0},
		Threshold: constThreshold(1),
		Stop:      ProductStopRule(10),
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(e.logInv) != 3 {
		t.Fatalf("logInv has %d entries, want 3", len(e.logInv))
	}
	if math.Abs(e.logInv[0]-math.Ln2) > 1e-12 || math.Abs(e.logInv[1]-2*math.Ln2) > 1e-12 {
		t.Errorf("logInv = %v, want [ln 2, 2 ln 2, +Inf]", e.logInv)
	}
	if !math.IsInf(e.logInv[2], 1) {
		t.Error("zero probability should be infinitely rare")
	}
}

func TestFiltersMaxDepthDiscardsIncomplete(t *testing.T) {
	// With p=0.5 and n large, paths need many steps; a tiny MaxDepth
	// means nothing completes.
	e, err := NewEngine(1<<20, Params{
		Seed:      3,
		Probs:     dist.Uniform(32, 0.5),
		Threshold: constThreshold(1),
		Stop:      ProductStopRule(1 << 20),
		MaxDepth:  2,
	})
	if err != nil {
		t.Fatal(err)
	}
	fs := e.Filters(bitvec.New(0, 1, 2))
	if len(fs.Paths) != 0 {
		t.Errorf("depth-capped engine emitted %d filters", len(fs.Paths))
	}
}

func TestFiltersSharedBetweenSimilarVectors(t *testing.T) {
	// Identical vectors share all filters; overlapping vectors share
	// those whose paths stay inside the intersection.
	e := uniformEngine(t, 300, 0.25, 64, 0.6, 9)
	x := bitvec.New(1, 2, 3, 4, 5, 6, 7, 8)
	fx := e.Filters(x)
	fx2 := e.Filters(x)
	if len(fx.Paths) != len(fx2.Paths) {
		t.Fatal("identical vectors must share all filters")
	}
	// q shares 6 of 8 bits.
	q := bitvec.New(1, 2, 3, 4, 5, 6, 20, 21)
	fq := e.Filters(q)
	qKeys := map[string]bool{}
	for _, p := range fq.Paths {
		qKeys[PathKey(p)] = true
	}
	shared := 0
	for _, p := range fx.Paths {
		if qKeys[PathKey(p)] {
			shared++
			for _, el := range p {
				if !x.Contains(el) || !q.Contains(el) {
					t.Fatalf("shared path %v leaves the intersection", p)
				}
			}
		}
	}
	t.Logf("x filters %d, q filters %d, shared %d", len(fx.Paths), len(fq.Paths), shared)
}

func TestPathKeyInjective(t *testing.T) {
	keys := map[string][]uint32{}
	paths := [][]uint32{
		{}, {0}, {1}, {0, 0}, {0, 1}, {1, 0}, {256}, {0, 256}, {65536}, {1, 2, 3},
	}
	for _, p := range paths {
		k := PathKey(p)
		if prev, ok := keys[k]; ok {
			t.Fatalf("collision between %v and %v", prev, p)
		}
		keys[k] = p
	}
}

func TestPathKeyDistinctFromConcatAmbiguity(t *testing.T) {
	// Fixed-width encoding means {1,2} and a hypothetical {258} (0x0102)
	// cannot collide: lengths differ in bytes.
	if PathKey([]uint32{1, 2}) == PathKey([]uint32{258}) {
		t.Fatal("ambiguous encoding")
	}
}

func TestFiltersExpansionCounted(t *testing.T) {
	e := uniformEngine(t, 100, 0.25, 32, 0.5, 11)
	fs := e.Filters(bitvec.New(1, 2, 3, 4, 5, 6))
	if fs.Expanded < 1 {
		t.Error("expansion counter not incremented")
	}
}

// Statistical check of Lemma 5's flavor: two strongly overlapping vectors
// collide (share ≥1 filter) in a decent fraction of engine seeds, while
// disjoint vectors never do.
func TestFilterCollisionStatistics(t *testing.T) {
	n := 500
	p := 0.25
	probs := dist.Uniform(128, p)
	x := bitvec.New(0, 1, 2, 3, 4, 5, 6, 7, 8, 9)
	qClose := bitvec.New(0, 1, 2, 3, 4, 5, 6, 7, 100, 101) // 8/10 overlap
	qFar := bitvec.New(100, 101, 102, 103, 104, 105, 106, 107, 108, 109)

	collideClose, collideFar := 0, 0
	const trials = 300
	for seed := 0; seed < trials; seed++ {
		e, err := NewEngine(n, Params{
			Seed:  uint64(seed),
			Probs: probs,
			// Adversarial-style threshold for b1 = 0.6: 1/(6 - j).
			Threshold: func(v bitvec.Vector, j int, i uint32) float64 {
				return 1 / (0.6*float64(v.Len()) - float64(j))
			},
			Stop: ProductStopRule(n),
		})
		if err != nil {
			t.Fatal(err)
		}
		fx := e.Filters(x)
		keys := map[string]bool{}
		for _, pth := range fx.Paths {
			keys[PathKey(pth)] = true
		}
		hit := func(q bitvec.Vector) bool {
			for _, pth := range e.Filters(q).Paths {
				if keys[PathKey(pth)] {
					return true
				}
			}
			return false
		}
		if hit(qClose) {
			collideClose++
		}
		if hit(qFar) {
			collideFar++
		}
	}
	if collideFar != 0 {
		t.Errorf("disjoint vectors shared filters %d times (paths must lie inside x)", collideFar)
	}
	// Lemma 5 guarantees ≥ 1/log n per repetition when (1) holds; with a
	// generous threshold the empirical rate should be comfortably nonzero.
	if rate := float64(collideClose) / trials; rate < 0.05 {
		t.Errorf("close-pair collision rate %v too small", rate)
	}
}
