package segment

import (
	"testing"

	"skewsim/internal/bitvec"
	"skewsim/internal/hashing"
	"skewsim/internal/verify"
)

// batchTestIndex builds a SegmentedIndex with frozen segments, a live
// memtable, and tombstones — every layer a search walks.
func batchTestIndex(t *testing.T) (*SegmentedIndex, []bitvec.Vector) {
	t.Helper()
	const n = 500
	d := testDist(t)
	params := testParams(t, d, n, 3, 7)
	s, err := New(Config{Params: params, N: n, MemtableSize: 96, MaxSegments: 100})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	t.Cleanup(s.Close)
	rng := hashing.NewSplitMix64(3)
	data := d.SampleN(rng, n)
	ids := make([]int64, n)
	for i, v := range data {
		if ids[i], err = s.Insert(v); err != nil {
			t.Fatalf("Insert: %v", err)
		}
	}
	for k := 0; k < 60; k++ {
		s.Delete(ids[rng.NextBelow(n)])
	}
	s.WaitIdle()
	if st := s.Stats(); st.Segments < 2 || st.Memtable == 0 {
		t.Fatalf("layer mix not exercised: %+v", st)
	}
	qs := d.SampleN(rng, 50)
	qs = append(qs, bitvec.New(), data[3])
	return s, qs
}

// batchSessions acquires one verify session per query, released on
// test cleanup.
func batchSessions(t *testing.T, m bitvec.Measure, qs []bitvec.Vector) []*verify.Session {
	t.Helper()
	sess := make([]*verify.Session, len(qs))
	for k, q := range qs {
		sess[k] = verify.Acquire(m, q)
	}
	t.Cleanup(func() {
		for _, se := range sess {
			verify.Release(se)
		}
	})
	return sess
}

// TestSearchBatchBestDifferential asserts a batch Search (mode best)
// against one-query searches: found flags and best similarities must
// match exactly, the returned id must be the lowest external id
// achieving the best similarity (checked against the exhaustive top-k
// candidate list, which shares the batch's candidate set), and the
// summed work stats must equal the singles'.
func TestSearchBatchBestDifferential(t *testing.T) {
	s, qs := batchTestIndex(t)
	m := bitvec.BraunBlanquetMeasure
	sess := batchSessions(t, m, qs)

	got, gotStats, _ := searchBatch(s, nil, sess, nil)
	if len(got) != len(qs) {
		t.Fatalf("batch Search returned %d results, want %d", len(got), len(qs))
	}
	var wantStats QueryStats
	for k := range qs {
		match, st, found, _ := s.QueryBestWithContext(nil, sess[k])
		wantStats.Filters += st.Filters
		wantStats.Truncated += st.Truncated
		wantStats.Candidates += st.Candidates
		wantStats.Distinct += st.Distinct
		if got[k].Found != found {
			t.Errorf("query %d: batch found=%v, single found=%v", k, got[k].Found, found)
			continue
		}
		if !found {
			continue
		}
		if got[k].Match.Similarity != match.Similarity {
			t.Errorf("query %d: batch sim %v != single sim %v", k, got[k].Match.Similarity, match.Similarity)
		}
		// The batch tie-break is lowest-id-among-best; TopK sorts by
		// similarity desc then id asc over the same candidate set, so
		// the expected id is the first entry at the best similarity.
		if match.Similarity > 0 {
			topAll, _ := queryTopK(s, qs[k], 1<<20, m)
			if len(topAll) == 0 || topAll[0].Similarity != match.Similarity {
				t.Fatalf("query %d: TopK disagrees with QueryBest", k)
			}
			if got[k].Match.ID != topAll[0].ID {
				t.Errorf("query %d: batch id %d, want lowest-id best %d", k, got[k].Match.ID, topAll[0].ID)
			}
		}
	}
	if gotStats.Filters != wantStats.Filters || gotStats.Truncated != wantStats.Truncated ||
		gotStats.Candidates != wantStats.Candidates || gotStats.Distinct != wantStats.Distinct {
		t.Errorf("batch stats %+v, want sums %+v", gotStats, wantStats)
	}
	if gotStats.Reps != s.Repetitions() {
		t.Errorf("batch Reps = %d, want %d (once per batch)", gotStats.Reps, s.Repetitions())
	}
}

// TestSearchBatchThresholdDifferential asserts threshold mode: found
// must agree with the single-query threshold path (a passing match
// exists iff one exists), and a found match must itself pass and be
// the best passing candidate.
func TestSearchBatchThresholdDifferential(t *testing.T) {
	s, qs := batchTestIndex(t)
	m := bitvec.BraunBlanquetMeasure
	sess := batchSessions(t, m, qs)
	const threshold = 0.4
	thresholds := make([]float64, len(qs))
	for k := range thresholds {
		thresholds[k] = threshold
	}

	got, _, _ := searchBatch(s, nil, sess, thresholds)
	for k := range qs {
		_, _, found, _ := s.QueryWithContext(nil, sess[k], threshold)
		if got[k].Found != found {
			t.Errorf("query %d: batch found=%v, single found=%v", k, got[k].Found, found)
			continue
		}
		if !found {
			continue
		}
		if got[k].Match.Similarity < threshold {
			t.Errorf("query %d: batch match sim %v below threshold", k, got[k].Match.Similarity)
		}
		// The batch's threshold match is the best passing candidate:
		// it must equal the best candidate overall (which passes, since
		// some candidate does).
		best, _, _, _ := s.QueryBestWithContext(nil, sess[k])
		if got[k].Match.Similarity != best.Similarity {
			t.Errorf("query %d: batch sim %v != best sim %v", k, got[k].Match.Similarity, best.Similarity)
		}
	}

	// Mismatched thresholds length must panic loudly, not misattribute.
	defer func() {
		if recover() == nil {
			t.Error("mismatched thresholds length should panic")
		}
	}()
	searchBatch(s, nil, sess, thresholds[:1])
}
