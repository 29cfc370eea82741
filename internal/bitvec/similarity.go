package bitvec

import (
	"fmt"
	"math"
)

// Measure identifies a set-similarity measure. The paper's analysis uses
// Braun-Blanquet similarity (as in Christiani–Pagh); the other measures are
// provided because §1 notes the results extend to them and the engine is
// parameterized over the verification measure.
type Measure int

const (
	// BraunBlanquetMeasure is |x∩q| / max(|x|, |q|).
	BraunBlanquetMeasure Measure = iota
	// JaccardMeasure is |x∩q| / |x∪q|.
	JaccardMeasure
	// DiceMeasure is 2|x∩q| / (|x|+|q|).
	DiceMeasure
	// OverlapMeasure is |x∩q| / min(|x|, |q|).
	OverlapMeasure
	// CosineMeasure is |x∩q| / sqrt(|x|·|q|).
	CosineMeasure
)

// String returns the canonical lowercase name of the measure.
func (m Measure) String() string {
	switch m {
	case BraunBlanquetMeasure:
		return "braun-blanquet"
	case JaccardMeasure:
		return "jaccard"
	case DiceMeasure:
		return "dice"
	case OverlapMeasure:
		return "overlap"
	case CosineMeasure:
		return "cosine"
	default:
		return fmt.Sprintf("measure(%d)", int(m))
	}
}

// ParseMeasure converts a name (as produced by String) back to a Measure.
func ParseMeasure(name string) (Measure, error) {
	switch name {
	case "braun-blanquet", "bb":
		return BraunBlanquetMeasure, nil
	case "jaccard":
		return JaccardMeasure, nil
	case "dice":
		return DiceMeasure, nil
	case "overlap":
		return OverlapMeasure, nil
	case "cosine":
		return CosineMeasure, nil
	}
	return 0, fmt.Errorf("bitvec: unknown similarity measure %q", name)
}

// Similarity computes the chosen measure between v and w. All measures
// return values in [0,1], with 0 for disjoint vectors; the similarity of
// two empty vectors is defined as 0 (no shared evidence).
func (m Measure) Similarity(v, w Vector) float64 {
	inter := v.IntersectionSize(w)
	if inter == 0 {
		return 0
	}
	switch m {
	case BraunBlanquetMeasure:
		return float64(inter) / float64(max(v.Len(), w.Len()))
	case JaccardMeasure:
		return float64(inter) / float64(v.Len()+w.Len()-inter)
	case DiceMeasure:
		return 2 * float64(inter) / float64(v.Len()+w.Len())
	case OverlapMeasure:
		return float64(inter) / float64(min(v.Len(), w.Len()))
	case CosineMeasure:
		return float64(inter) / math.Sqrt(float64(v.Len())*float64(w.Len()))
	default:
		panic("bitvec: invalid measure " + m.String())
	}
}

// BraunBlanquet returns B(v, w) = |v∩w| / max(|v|, |w|), the measure the
// paper's data structure verifies candidates against.
func BraunBlanquet(v, w Vector) float64 {
	return BraunBlanquetMeasure.Similarity(v, w)
}

// Overlap returns |v∩w| / min(|v|, |w|).
func Overlap(v, w Vector) float64 { return OverlapMeasure.Similarity(v, w) }

// Cosine returns |v∩w| / sqrt(|v|·|w|).
func Cosine(v, w Vector) float64 { return CosineMeasure.Similarity(v, w) }

// Dice returns 2|v∩w| / (|v|+|w|).
func Dice(v, w Vector) float64 { return DiceMeasure.Similarity(v, w) }

// Pearson computes the empirical Pearson correlation between two binary
// vectors viewed as 0/1 sequences of length d. This is the measure the
// paper's probabilistic model is stated in (an α-correlated query has
// per-coordinate correlation α with its planted partner).
//
// It returns 0 when either vector is constant over [0,d) (all zeros or all
// ones), where correlation is undefined.
func Pearson(v, w Vector, d int) float64 {
	if d <= 0 {
		return 0
	}
	nv, nw := 0, 0
	for _, b := range v.bits {
		if int(b) < d {
			nv++
		}
	}
	for _, b := range w.bits {
		if int(b) < d {
			nw++
		}
	}
	if nv == 0 || nw == 0 || nv == d || nw == d {
		return 0
	}
	inter := 0
	i, j := 0, 0
	for i < len(v.bits) && j < len(w.bits) {
		a, b := v.bits[i], w.bits[j]
		if int(a) >= d || int(b) >= d {
			break
		}
		switch {
		case a < b:
			i++
		case a > b:
			j++
		default:
			inter++
			i++
			j++
		}
	}
	fd := float64(d)
	mv := float64(nv) / fd
	mw := float64(nw) / fd
	cov := float64(inter)/fd - mv*mw
	return cov / math.Sqrt(mv*(1-mv)*mw*(1-mw))
}
