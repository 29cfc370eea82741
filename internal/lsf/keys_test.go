package lsf_test

import (
	"slices"
	"testing"

	"skewsim/internal/core"
	"skewsim/internal/datagen"
	"skewsim/internal/dist"
	"skewsim/internal/lsf"
)

// pathID is a path spelled out in full — its length, then its
// elements 16 bits each — a map key that identifies the path itself,
// with no hashing of the elements involved.
type pathID [4]uint64

func newPathID(t *testing.T, path []uint32) pathID {
	var id pathID
	if len(path) > 15 {
		t.Fatalf("path %v is too long to spell out", path)
	}
	id[0] = uint64(len(path))
	for i, e := range path {
		if e >= 1<<16 {
			t.Fatalf("path element %d is too large to spell out", e)
		}
		j := i + 1
		id[j/4] |= uint64(e) << (16 * (j % 4))
	}
	return id
}

// TestKeysNeverMergeOnBenchmarkCorpora builds the end-to-end
// benchmark's corpora at full size — dense Fig. 1 and sparse Zipf
// vectors with planted queries, seeds 1–3, under the engines the
// daemon derives for them — and holds every repetition's key-only index
// to a path-keyed reference kept here: no two distinct paths share a
// 64-bit key (zero merges), so the buckets are exactly the distinct
// paths and every query's candidate occurrences equal the reference's,
// in order.
func TestKeysNeverMergeOnBenchmarkCorpora(t *testing.T) {
	const queries = 200
	for _, c := range []struct {
		name    string
		profile []float64
		n, reps int
	}{
		{"dense", dist.Fig1Profile(600, 0.25), 2000, 4},
		{"sparse", dist.Zipf(2000, 0.5, 0.6), 5000, 6},
	} {
		d := dist.MustProduct(c.profile)
		params, err := core.EngineParams(core.Correlated, d, c.n, 0.6667, core.Options{Seed: 1, Repetitions: c.reps})
		if err != nil {
			t.Fatal(err)
		}
		for seed := uint64(1); seed <= 3; seed++ {
			cw, err := datagen.NewCorrelatedWorkload(d, c.n, queries, 2.0/3.0, seed)
			if err != nil {
				t.Fatal(err)
			}
			buckets := 0 // the previous repetition's, to presize the reference
			for r, p := range params {
				eng, err := lsf.NewEngine(c.n, p)
				if err != nil {
					t.Fatal(err)
				}
				// One filter generation per vector feeds both the index (as
				// BuildIndex does) and the reference.
				b, ref := lsf.NewBuilder(eng), make(map[pathID][]int32, buckets+buckets/4)
				var fs lsf.FilterSet
				for id, x := range cw.Data {
					fs.Reset()
					eng.FiltersInto(x, &fs)
					for i := 0; i < fs.Len(); i++ {
						path := fs.Path(i)
						b.Add(lsf.HashPath(path), int32(id))
						k := newPathID(t, path)
						ref[k] = append(ref[k], int32(id))
					}
				}
				ix := b.Freeze(cw.Data)
				if got := ix.Stats().Buckets; got != len(ref) {
					t.Fatalf("%s seed %d rep %d: %d buckets for %d distinct paths", c.name, seed, r, got, len(ref))
				}
				buckets = len(ref)
				var got, want []int32
				var refs []lsf.PostingRef
				for k, q := range cw.Queries {
					refs, _, _ = ix.AppendFilterRefs(q, &fs, refs[:0])
					got, want = got[:0], want[:0]
					for _, rf := range refs {
						got = append(got, ix.RefIDs(rf)...)
					}
					for i := 0; i < fs.Len(); i++ {
						want = append(want, ref[newPathID(t, fs.Path(i))]...)
					}
					if !slices.Equal(got, want) {
						t.Fatalf("%s seed %d rep %d query %d: %d candidate occurrences, path-keyed reference %d",
							c.name, seed, r, k, len(got), len(want))
					}
				}
			}
		}
	}
}
