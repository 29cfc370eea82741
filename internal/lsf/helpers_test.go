package lsf

import (
	"slices"
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

// PathKey encodes a path as a compact string (big-endian fixed width per
// element); distinct paths get distinct keys. The index buckets by
// 64-bit path hashes alone, so tests use it where exact identity of a
// path is wanted.
func PathKey(path []uint32) string {
	b := make([]byte, 4*len(path))
	for k, e := range path {
		b[4*k] = byte(e >> 24)
		b[4*k+1] = byte(e >> 16)
		b[4*k+2] = byte(e >> 8)
		b[4*k+3] = byte(e)
	}
	return string(b)
}

// postings returns the posting list of path's bucket, or nil.
func (ix *Index) postings(path []uint32) []int32 {
	r, ok := ix.PathRef(path)
	if !ok {
		return nil
	}
	return ix.RefIDs(r)
}

// bucketSnapshot flattens an index's ForEachBucket contents into a
// key-indexed map for representation-independent comparison: resident,
// zero-copy and compressed cold indexes alike.
func bucketSnapshot(ix *Index) map[uint64][]int32 {
	out := make(map[uint64][]int32, ix.buckets())
	ix.ForEachBucket(func(h uint64, ids []int32) {
		out[h] = slices.Clone(ids)
	})
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
