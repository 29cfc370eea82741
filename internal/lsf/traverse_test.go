package lsf

import (
	"slices"
	"testing"

	"skewsim/internal/bitvec"
)

// referenceStats recomputes one query's stats the way the pre-refactor
// traversal did — fresh map dedup, a plain map from key to bucket — as
// an independent check that the shared traversal preserved QueryStats
// semantics (Filters / Candidates / Distinct / Truncated) exactly.
func referenceStats(ix *Index, q bitvec.Vector) QueryStats {
	fs := ix.engine.Filters(q)
	stats := QueryStats{Filters: len(fs.Paths), Truncated: fs.Truncated}
	byKey := bucketSnapshot(ix)
	seen := make(map[int32]struct{})
	for _, p := range fs.Paths {
		for _, id := range byKey[HashPath(p)] {
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
// same 64-bit key: the key is the bucket, so the builder and the frozen
// index (the same table, handed over) hold one bucket with both paths'
// postings, in insertion order — extra candidates that verification
// rejects, never a lost one.
func TestBucketCollisionChaining(t *testing.T) {
	e, data := fig1TestEngine(t, 10)
	pathA := []uint32{1, 2, 3}
	hA := HashPath(pathA)
	want := []int32{5, 1, 2}

	for _, live := range []bool{false, true} {
		// Plant path B's posting under A's key, as if HashPath had
		// collided, then A's own postings.
		bld := newBuilder(e, live)
		bld.AddBucket(hA, []int32{5})
		bld.AddBucket(hA, []int32{1})
		bld.Add(hA, 2)
		if bld.buckets != 1 {
			t.Fatalf("live=%v: builder bucket count = %d, want 1", live, bld.buckets)
		}
		if live {
			if got := liveIDs(bld, hA); !slices.Equal(got, want) {
				t.Fatalf("live lookup = %v, want %v", got, want)
			}
		}
		ix := bld.Freeze(data)
		if ids := ix.postings(pathA); !slices.Equal(ids, want) {
			t.Fatalf("live=%v: postings(A) = %v, want %v", live, ids, want)
		}
		if st := ix.Stats(); st.Buckets != 1 || st.TotalFilters != 3 {
			t.Fatalf("live=%v: stats %+v, want 1 bucket of 3 postings", live, st)
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
