package lsf

import (
	"testing"

	"skewsim/internal/bitvec"
	"skewsim/internal/dist"
	"skewsim/internal/hashing"
)

// referenceStats recomputes one query's stats the way the pre-refactor
// traversal did — fresh map dedup, string path keys — as an independent
// check that the shared traversal preserved QueryStats semantics
// (Filters / Candidates / Distinct / Truncated) exactly.
func referenceStats(ix *Index, q bitvec.Vector) QueryStats {
	fs := ix.engine.Filters(q)
	stats := QueryStats{Filters: len(fs.Paths), Truncated: fs.Truncated}
	byKey := make(map[string][]int32)
	for b := range ix.pathSpans {
		byKey[PathKey(ix.bucketPath(int32(b)))] = ix.bucketIDs(int32(b))
	}
	seen := make(map[int32]struct{})
	for _, p := range fs.Paths {
		for _, id := range byKey[PathKey(p)] {
			stats.Candidates++
			if _, dup := seen[id]; dup {
				continue
			}
			seen[id] = struct{}{}
			stats.Distinct++
		}
	}
	return stats
}

func TestTraversalStatsMatchReference(t *testing.T) {
	ix, data := buildTestIndex(t, 31)
	for _, q := range data[:50] {
		// Exhaustive walk (impossible threshold) so no early exit hides work.
		_, _, got, _ := ix.Query(q, 2.0, bitvec.BraunBlanquetMeasure)
		want := referenceStats(ix, q)
		if got != want {
			t.Fatalf("stats diverged from reference: got %+v, want %+v", got, want)
		}
		ids, got2 := ix.CandidateIDs(q)
		if got2 != want || len(ids) != want.Distinct {
			t.Fatalf("CandidateIDs stats %+v (%d ids), want %+v", got2, len(ids), want)
		}
	}
}

func TestBatchQueryMatchesSequential(t *testing.T) {
	ix, data := buildTestIndex(t, 32)
	queries := data[:60]
	batch := ix.BatchQuery(queries, 0.6, bitvec.BraunBlanquetMeasure)
	if len(batch) != len(queries) {
		t.Fatalf("got %d results for %d queries", len(batch), len(queries))
	}
	for k, q := range queries {
		id, sim, st, found := ix.Query(q, 0.6, bitvec.BraunBlanquetMeasure)
		r := batch[k]
		if r.ID != id || r.Similarity != sim || r.Stats != st || r.Found != found {
			t.Fatalf("query %d: batch %+v != sequential (%d, %v, %+v, %v)", k, r, id, sim, st, found)
		}
	}
}

func TestQueryParallelMatchesBatch(t *testing.T) {
	ix, data := buildTestIndex(t, 33)
	queries := data[:80]
	want := ix.BatchQuery(queries, 0.5, bitvec.BraunBlanquetMeasure)
	for _, workers := range []int{1, 2, 4, 16, 0} {
		got := ix.QueryParallel(queries, 0.5, bitvec.BraunBlanquetMeasure, workers)
		if len(got) != len(want) {
			t.Fatalf("workers=%d: %d results, want %d", workers, len(got), len(want))
		}
		for k := range want {
			if got[k] != want[k] {
				t.Fatalf("workers=%d query %d: %+v != %+v", workers, k, got[k], want[k])
			}
		}
	}
}

func TestQueryParallelEmptyAndTinyBatches(t *testing.T) {
	ix, data := buildTestIndex(t, 34)
	if got := ix.QueryParallel(nil, 0.5, bitvec.BraunBlanquetMeasure, 4); len(got) != 0 {
		t.Errorf("empty batch returned %d results", len(got))
	}
	got := ix.QueryParallel(data[:1], 0.5, bitvec.BraunBlanquetMeasure, 64)
	if len(got) != 1 {
		t.Fatalf("got %d results", len(got))
	}
}

// TestVisitedSetReuse drives many queries through one index so the pooled
// visited set cycles epochs, and verifies dedup never leaks state between
// queries (a stale stamp would suppress real candidates).
func TestVisitedSetReuse(t *testing.T) {
	ix, data := buildTestIndex(t, 35)
	for round := 0; round < 5; round++ {
		for _, q := range data[:30] {
			ids, st := ix.CandidateIDs(q)
			if len(ids) != st.Distinct {
				t.Fatal("distinct count mismatch")
			}
			seen := map[int32]bool{}
			for _, id := range ids {
				if seen[id] {
					t.Fatal("duplicate candidate across visited-set reuse")
				}
				seen[id] = true
			}
		}
	}
}

func TestVisitedEpochWraparound(t *testing.T) {
	var v Visited
	v.Begin(4)
	if !v.FirstVisit(2) || v.FirstVisit(2) {
		t.Fatal("basic visit semantics broken")
	}
	// Force the wrap: epoch overflows to 0, which must clear all stamps
	// rather than alias stamps from 2^32 epochs ago.
	v.epoch = ^uint32(0)
	v.stamp[3] = ^uint32(0) // id 3 "visited" in the epoch about to recur
	v.Begin(4)
	if v.epoch != 1 {
		t.Fatalf("epoch after wrap = %d, want 1", v.epoch)
	}
	if !v.FirstVisit(3) {
		t.Fatal("stale stamp survived epoch wraparound")
	}
	// Growing the universe reallocates and restarts cleanly.
	v.Begin(1000)
	if !v.FirstVisit(999) {
		t.Fatal("grown visited set rejected a fresh id")
	}
}

// TestBucketCollisionChaining simulates two distinct paths landing on the
// same 64-bit key: the builder's open-addressing table and the frozen
// index's (the same table, handed over) must keep their posting lists
// separate, for both incremental inserts and post-freeze lookups.
func TestBucketCollisionChaining(t *testing.T) {
	e, data := parallelTestEngine(t, 10)
	pathA := []uint32{1, 2, 3}
	pathB := []uint32{7, 8} // any other path; we force the collision below
	hA := HashPath(pathA)

	for _, live := range []bool{false, true} {
		// Plant B's bucket under A's key, as if HashPath had collided.
		bld := newBuilder(e, live)
		bld.AddBucket(hA, pathB, []int32{5})
		// Inserting A must probe past B's slot (same key, different path)
		// and open a fresh bucket instead of contaminating B's ids.
		bld.AddBucket(hA, pathA, []int32{1})
		bld.AddBucket(hA, pathA, []int32{2})
		if got := len(bld.pathSpans); got != 2 {
			t.Fatalf("live=%v: builder bucket count = %d, want 2", live, got)
		}
		ix := bld.Freeze(data)
		// The frozen probe for A must step past B's slot and land on A's
		// bucket; B stays reachable under the key it was stored with.
		if ids := ix.postings(pathA); len(ids) != 2 || ids[0] != 1 || ids[1] != 2 {
			t.Fatalf("live=%v: postings(A) = %v, want [1 2]", live, ids)
		}
		r, ok := ix.PathRefHash(hA, pathB)
		if ids := ix.RefIDs(r); !ok || len(ids) != 1 || ids[0] != 5 {
			t.Fatalf("live=%v: collided bucket B = %v (found %v), want [5]", live, ids, ok)
		}
		if got := len(ix.pathSpans); got != 2 {
			t.Fatalf("live=%v: bucket count = %d, want 2", live, got)
		}
	}
}

func TestHashPathPrefixAndPermutationDistinct(t *testing.T) {
	// Not a correctness requirement (chains handle collisions) but the
	// cheap structural cases must not collide systematically.
	paths := [][]uint32{
		{1}, {1, 2}, {2, 1}, {1, 2, 3}, {3, 2, 1}, {258}, {0}, {0, 0x01000000},
	}
	seen := map[uint64][]uint32{}
	for _, p := range paths {
		h := HashPath(p)
		if prev, dup := seen[h]; dup {
			t.Fatalf("HashPath(%v) == HashPath(%v)", p, prev)
		}
		seen[h] = p
	}
}

// TestBatchQueryAgainstCore ties the batch path to an end-to-end search:
// planted self-queries must retrieve themselves identically whether asked
// one at a time or in a parallel batch.
func TestBatchQueryAgainstSelfRetrieval(t *testing.T) {
	n := 300
	d := dist.MustProduct(dist.Fig1Profile(200, 0.2))
	rng := hashing.NewSplitMix64(77)
	data := d.SampleN(rng, n)
	e, err := NewEngine(n, Params{
		Seed:  3,
		Probs: d.Probs(),
		Threshold: func(v bitvec.Vector, j int, i uint32) float64 {
			denom := 0.7*float64(v.Len()) - float64(j)
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
	ix, err := BuildIndexParallel(e, data, 4)
	if err != nil {
		t.Fatal(err)
	}
	res := ix.QueryParallel(data, 1.0, bitvec.BraunBlanquetMeasure, 0)
	for id, r := range res {
		if r.Stats.Filters == 0 {
			continue
		}
		if !r.Found {
			t.Errorf("vector %d with %d filters not self-retrieved in batch", id, r.Stats.Filters)
			continue
		}
		if !data[r.ID].Equal(data[id]) {
			t.Errorf("vector %d retrieved non-identical %d", id, r.ID)
		}
	}
}
