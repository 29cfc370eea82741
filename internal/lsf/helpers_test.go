package lsf

import (
	"testing"

	"skewsim/internal/bitvec"
	"skewsim/internal/dist"
	"skewsim/internal/hashing"
)

// fig1TestEngine is an adversarial (b1 = 0.6) engine over n vectors
// drawn from the Figure 1 profile, with the vectors.
func fig1TestEngine(t *testing.T, n int) (*Engine, []bitvec.Vector) {
	t.Helper()
	d := dist.MustProduct(dist.Fig1Profile(150, 0.2))
	rng := hashing.NewSplitMix64(21)
	data := d.SampleN(rng, n)
	e, err := NewEngine(n, Params{
		Seed:  9,
		Probs: d.Probs(),
		Threshold: func(v bitvec.Vector, j int, i uint32) float64 {
			denom := 0.6*float64(v.Len()) - float64(j)
			if denom <= 1 {
				return 1
			}
			return 1 / denom
		},
		Stop: ProductStopRule(n),
	})
	if err != nil {
		t.Fatal(err)
	}
	return e, data
}

// bucketSnapshot flattens the frozen bucket arenas into a path-keyed map
// for representation-independent comparison.
func bucketSnapshot(ix *Index) map[string][]int32 {
	out := make(map[string][]int32, len(ix.pathSpans))
	for b := range ix.pathSpans {
		out[PathKey(ix.bucketPath(int32(b)))] = ix.bucketIDs(int32(b))
	}
	return out
}

func indexesEqual(a, b *Index) bool {
	if a.totalFilters != b.totalFilters || a.truncatedCount != b.truncatedCount {
		return false
	}
	as, bs := bucketSnapshot(a), bucketSnapshot(b)
	if len(as) != len(bs) {
		return false
	}
	for k, ids := range as {
		other, ok := bs[k]
		if !ok || len(other) != len(ids) {
			return false
		}
		for i := range ids {
			if ids[i] != other[i] {
				return false
			}
		}
	}
	return true
}
