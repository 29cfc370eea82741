package lsf_test

import (
	"cmp"
	"fmt"
	"slices"
	"testing"

	"skewsim/internal/core"
	"skewsim/internal/datagen"
	"skewsim/internal/dist"
	"skewsim/internal/lsf"
)

// pathID is a path spelled out in full — its length, then its
// elements 16 bits each — a sort key that identifies the path itself,
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

// pathPosting is one reference entry: data vector id stored under path.
type pathPosting struct {
	path pathID
	id   int32
}

// comparePathIDs orders paths word by word, the order newPathReference
// sorts them in.
func comparePathIDs(a, b pathID) int {
	for i := range a {
		if c := cmp.Compare(a[i], b[i]); c != 0 {
			return c
		}
	}
	return 0
}

// pathReference is the path-keyed reference index: the distinct paths in
// sorted order, and each one's ids in insertion order.
type pathReference struct {
	paths  []pathID
	starts []int // ids[starts[j]:starts[j+1]] are paths[j]'s
	ids    []int32
}

// newPathReference groups postings, appended in id order, by path. It
// sorts them with an LSD radix sort over the paths' 16-bit digits in
// comparePathIDs order; every pass is stable, so each path's ids keep
// their order. postings is reordered.
func newPathReference(postings []pathPosting) *pathReference {
	tmp := make([]pathPosting, len(postings))
	var count [1 << 16]int
	for w := len(pathID{}) - 1; w >= 0; w-- {
		for shift := 0; shift < 64; shift += 16 {
			clear(count[:])
			for _, p := range postings {
				count[p.path[w]>>shift&0xffff]++
			}
			if count[0] == len(postings) {
				continue // this digit is 0 in every path
			}
			sum := 0
			for i, c := range count {
				count[i] = sum
				sum += c
			}
			for _, p := range postings {
				digit := p.path[w] >> shift & 0xffff
				tmp[count[digit]] = p
				count[digit]++
			}
			postings, tmp = tmp, postings
		}
	}
	ref := &pathReference{ids: make([]int32, len(postings))}
	for i, p := range postings {
		if i == 0 || p.path != postings[i-1].path {
			ref.paths = append(ref.paths, p.path)
			ref.starts = append(ref.starts, i)
		}
		ref.ids[i] = p.id
	}
	ref.starts = append(ref.starts, len(postings))
	return ref
}

// lookup returns the ids stored under path, in insertion order.
func (ref *pathReference) lookup(path pathID) []int32 {
	j, ok := slices.BinarySearchFunc(ref.paths, path, comparePathIDs)
	if !ok {
		return nil
	}
	return ref.ids[ref.starts[j]:ref.starts[j+1]]
}

// TestKeysNeverMergeOnBenchmarkCorpora builds the end-to-end
// benchmark's corpora at full size — dense Fig. 1 and sparse Zipf
// vectors with planted queries, seeds 1–3, under the engines the
// daemon derives for them — and holds every repetition's key-only index
// to a path-keyed reference kept here: no two distinct paths share a
// 64-bit key (zero merges), so the buckets are exactly the distinct
// paths and every query's candidate occurrences equal the reference's,
// in order. The six (corpus, seed) cases run as parallel subtests.
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
			t.Run(fmt.Sprintf("%s/seed=%d", c.name, seed), func(t *testing.T) {
				t.Parallel()
				cw, err := datagen.NewCorrelatedWorkload(d, c.n, queries, 2.0/3.0, seed)
				if err != nil {
					t.Fatal(err)
				}
				var postings []pathPosting // reused across repetitions
				for r, p := range params {
					eng, err := lsf.NewEngine(c.n, p)
					if err != nil {
						t.Fatal(err)
					}
					// One filter generation per vector feeds both the index
					// (as BuildIndex does) and the reference.
					b := lsf.NewBuilder(eng)
					postings = postings[:0]
					var fs lsf.FilterSet
					for id, x := range cw.Data {
						fs.Reset()
						eng.FiltersInto(x, &fs)
						for i := 0; i < fs.Len(); i++ {
							path := fs.Path(i)
							b.Add(lsf.HashPath(path), int32(id))
							postings = append(postings, pathPosting{newPathID(t, path), int32(id)})
						}
					}
					ix := b.Freeze(cw.Data)
					ref := newPathReference(postings)
					if got := ix.Stats().Buckets; got != len(ref.paths) {
						t.Fatalf("rep %d: %d buckets for %d distinct paths", r, got, len(ref.paths))
					}
					var got, want []int32
					var refs []lsf.PostingRef
					for k, q := range cw.Queries {
						refs, _, _ = ix.AppendFilterRefs(q, &fs, refs[:0])
						got, want = got[:0], want[:0]
						for _, rf := range refs {
							got = append(got, ix.RefIDs(rf)...)
						}
						for i := 0; i < fs.Len(); i++ {
							want = append(want, ref.lookup(newPathID(t, fs.Path(i)))...)
						}
						if !slices.Equal(got, want) {
							t.Fatalf("rep %d query %d: %d candidate occurrences, path-keyed reference %d",
								r, k, len(got), len(want))
						}
					}
				}
			})
		}
	}
}
