package bitvec

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, eps float64) bool { return math.Abs(a-b) <= eps }

func TestBraunBlanquetKnownValues(t *testing.T) {
	a := New(1, 2, 3, 4)
	b := New(3, 4, 5, 6, 7, 8)
	// |a∩b| = 2, max = 6.
	if got := BraunBlanquet(a, b); !almostEqual(got, 2.0/6, 1e-12) {
		t.Errorf("BraunBlanquet = %v, want %v", got, 2.0/6)
	}
}

func TestJaccardKnownValues(t *testing.T) {
	a := New(1, 2, 3)
	b := New(2, 3, 4)
	if got := JaccardMeasure.Similarity(a, b); !almostEqual(got, 0.5, 1e-12) {
		t.Errorf("Jaccard = %v, want 0.5", got)
	}
}

func TestOverlapDiceCosine(t *testing.T) {
	a := New(1, 2)
	b := New(2, 3, 4, 5)
	if got := Overlap(a, b); !almostEqual(got, 0.5, 1e-12) {
		t.Errorf("Overlap = %v", got)
	}
	if got := Dice(a, b); !almostEqual(got, 2.0/6, 1e-12) {
		t.Errorf("Dice = %v", got)
	}
	if got := Cosine(a, b); !almostEqual(got, 1/math.Sqrt(8), 1e-12) {
		t.Errorf("Cosine = %v", got)
	}
}

func TestSimilarityIdentical(t *testing.T) {
	v := New(1, 5, 9)
	for _, m := range []Measure{BraunBlanquetMeasure, JaccardMeasure, DiceMeasure, OverlapMeasure, CosineMeasure} {
		if got := m.Similarity(v, v); !almostEqual(got, 1, 1e-12) {
			t.Errorf("%v self-similarity = %v, want 1", m, got)
		}
	}
}

func TestSimilarityDisjointAndEmpty(t *testing.T) {
	a := New(1, 2)
	b := New(3, 4)
	e := New()
	for _, m := range []Measure{BraunBlanquetMeasure, JaccardMeasure, DiceMeasure, OverlapMeasure, CosineMeasure} {
		if got := m.Similarity(a, b); got != 0 {
			t.Errorf("%v disjoint = %v, want 0", m, got)
		}
		if got := m.Similarity(a, e); got != 0 {
			t.Errorf("%v vs empty = %v, want 0", m, got)
		}
		if got := m.Similarity(e, e); got != 0 {
			t.Errorf("%v empty-empty = %v, want 0", m, got)
		}
	}
}

func TestMeasureStringRoundTrip(t *testing.T) {
	for _, m := range []Measure{BraunBlanquetMeasure, JaccardMeasure, DiceMeasure, OverlapMeasure, CosineMeasure} {
		back, err := ParseMeasure(m.String())
		if err != nil {
			t.Fatalf("ParseMeasure(%q): %v", m.String(), err)
		}
		if back != m {
			t.Errorf("round trip %v -> %v", m, back)
		}
	}
	if _, err := ParseMeasure("nope"); err == nil {
		t.Error("expected error for unknown measure")
	}
	if m, err := ParseMeasure("bb"); err != nil || m != BraunBlanquetMeasure {
		t.Error("alias bb should parse to Braun-Blanquet")
	}
}

func TestMeasureOrderingRelations(t *testing.T) {
	// For any pair: overlap >= dice, jaccard <= dice, BB <= overlap,
	// jaccard <= BB (since union >= max).
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a := randomVector(r, 100, 40)
		b := randomVector(r, 100, 40)
		j := JaccardMeasure.Similarity(a, b)
		bb := BraunBlanquet(a, b)
		ov := Overlap(a, b)
		di := Dice(a, b)
		const eps = 1e-12
		return j <= bb+eps && bb <= ov+eps && j <= di+eps && di <= ov+eps
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestMeasureRange(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a := randomVector(r, 80, 30)
		b := randomVector(r, 80, 30)
		for _, m := range []Measure{BraunBlanquetMeasure, JaccardMeasure, DiceMeasure, OverlapMeasure, CosineMeasure} {
			s := m.Similarity(a, b)
			if s < 0 || s > 1+1e-12 || math.IsNaN(s) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestPearsonPerfectCorrelation(t *testing.T) {
	v := New(0, 2, 4)
	if got := Pearson(v, v, 8); !almostEqual(got, 1, 1e-12) {
		t.Errorf("Pearson self = %v, want 1", got)
	}
}

func TestPearsonPerfectAntiCorrelation(t *testing.T) {
	v := New(0, 1, 2, 3)
	w := New(4, 5, 6, 7)
	if got := Pearson(v, w, 8); !almostEqual(got, -1, 1e-12) {
		t.Errorf("Pearson anti = %v, want -1", got)
	}
}

func TestPearsonUndefinedCases(t *testing.T) {
	if got := Pearson(New(), New(1), 4); got != 0 {
		t.Errorf("Pearson with empty = %v, want 0", got)
	}
	all := New(0, 1, 2, 3)
	if got := Pearson(all, New(1, 2), 4); got != 0 {
		t.Errorf("Pearson with constant-ones = %v, want 0", got)
	}
	if got := Pearson(New(1), New(2), 0); got != 0 {
		t.Errorf("Pearson with d=0 = %v, want 0", got)
	}
}

func TestPearsonSymmetricAndBounded(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		const d = 64
		a := randomVector(r, d, 30)
		b := randomVector(r, d, 30)
		p1 := Pearson(a, b, d)
		p2 := Pearson(b, a, d)
		if !almostEqual(p1, p2, 1e-12) {
			return false
		}
		return p1 >= -1-1e-9 && p1 <= 1+1e-9 && !math.IsNaN(p1)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestPearsonMatchesExpectationOnCorrelatedDraws(t *testing.T) {
	// Draw x with p = 0.3 per bit, q alpha-correlated; empirical Pearson
	// over a large dimension should approach alpha.
	const (
		d     = 200000
		p     = 0.3
		alpha = 0.6
	)
	rng := rand.New(rand.NewSource(42))
	var xb, qb []uint32
	for i := 0; i < d; i++ {
		xi := rng.Float64() < p
		var qi bool
		if rng.Float64() < alpha {
			qi = xi
		} else {
			qi = rng.Float64() < p
		}
		if xi {
			xb = append(xb, uint32(i))
		}
		if qi {
			qb = append(qb, uint32(i))
		}
	}
	got := Pearson(FromSorted(xb), FromSorted(qb), d)
	if math.Abs(got-alpha) > 0.02 {
		t.Errorf("empirical Pearson = %v, want ~%v", got, alpha)
	}
}
