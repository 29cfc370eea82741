package segment

import (
	"context"
	"slices"
	"testing"

	"skewsim/internal/bitvec"
	"skewsim/internal/hashing"
	"skewsim/internal/lsf"
	"skewsim/internal/verify"
)

// runSearch runs req on s over a fresh plan of its sessions' queries, so
// the results outlive the call.
func runSearch(s *SegmentedIndex, ctx context.Context, req Request) ([]Result, QueryStats, error) {
	qs := make([]bitvec.Vector, len(req.Sessions))
	for k, ses := range req.Sessions {
		qs[k] = ses.Query()
	}
	p := NewPlan(s.eng)
	p.Reset(qs...)
	return s.Search(lsf.NewCancelCheck(ctx), p, req)
}

// searchQuery runs one query q under m through Search in req's mode,
// over a pooled plan (the answer is copied out before the plan goes
// back).
func searchQuery(s *SegmentedIndex, q bitvec.Vector, m bitvec.Measure, req Request) (Result, QueryStats) {
	ses := verify.Acquire(m, q)
	defer verify.Release(ses)
	p := s.eng.plan(q)
	defer s.eng.release(p)
	req.Sessions = []*verify.Session{ses}
	res, stats, _ := s.Search(nil, p, req)
	out := res[0]
	out.Matches = slices.Clone(out.Matches)
	return out, stats
}

func queryBest(s *SegmentedIndex, q bitvec.Vector, m bitvec.Measure) (Match, QueryStats, bool) {
	res, stats := searchQuery(s, q, m, Request{Mode: ModeBest})
	return res.Match, stats, res.Found
}

func queryFirst(s *SegmentedIndex, q bitvec.Vector, threshold float64, m bitvec.Measure) (Match, QueryStats, bool) {
	res, stats := searchQuery(s, q, m, Request{Mode: ModeFirst, Thresholds: []float64{threshold}})
	return res.Match, stats, res.Found
}

func queryTopK(s *SegmentedIndex, q bitvec.Vector, k int, m bitvec.Measure) ([]Match, QueryStats) {
	res, stats := searchQuery(s, q, m, Request{Mode: ModeTopK, K: k})
	return res.Matches, stats
}

// searchBatch is the batch best-above-threshold search (the HTTP batch
// endpoint's shape): mode best over every session.
func searchBatch(s *SegmentedIndex, ctx context.Context, sess []*verify.Session, thresholds []float64) ([]Result, QueryStats, error) {
	return runSearch(s, ctx, Request{Sessions: sess, Thresholds: thresholds, Mode: ModeBest})
}

// sameAnswer compares two mode-first or mode-best answers.
func sameAnswer(a, b Result) bool { return a.Match == b.Match && a.Found == b.Found }

// TestSearchTieBreakLowestID: two identical vectors, the older frozen
// into a segment and the newer still in the memtable, tie on similarity
// 1; mode best names the lower id, whichever layer the loop probes
// first.
func TestSearchTieBreakLowestID(t *testing.T) {
	d := testDist(t)
	s, err := New(Config{Params: testParams(d, 64, 2, 7), N: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	v := bitvec.New(0, 1, 2, 3, 5, 8)
	if err := s.InsertWithID(0, v); err != nil {
		t.Fatal(err)
	}
	s.Flush()
	if err := s.InsertWithID(1, v); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.Segments != 1 || st.Memtable != 1 {
		t.Fatalf("layout %+v, want id 0 frozen and id 1 in the memtable", st)
	}
	if c, _ := s.CandidatesExt(v); len(c) != 2 {
		t.Fatalf("candidates %v, want both ids", c)
	}
	match, _, found := queryBest(s, v, bitvec.BraunBlanquetMeasure)
	if !found || match != (Match{ID: 0, Similarity: 1}) {
		t.Fatalf("mode best = %+v (found %v), want id 0 at similarity 1", match, found)
	}
}

// TestSearchAllocs: a one-query Search in modes best and first over a
// warmed layered index (frozen segments, a flushing-free memtable,
// tombstones) allocates nothing.
func TestSearchAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation and sync.Pool drops change allocation counts")
	}
	s, qs := batchTestIndex(t)
	m := bitvec.BraunBlanquetMeasure
	p := NewPlan(s.eng)
	for _, mode := range []Mode{ModeBest, ModeFirst} {
		for k, q := range qs[:10] {
			ses := verify.Acquire(m, q)
			req := Request{Sessions: []*verify.Session{ses}, Thresholds: []float64{0.5}, Mode: mode}
			run := func() {
				p.Reset(q)
				if _, _, err := s.Search(nil, p, req); err != nil {
					t.Fatal(err)
				}
			}
			run() // warm the plan, the pools and the result slots
			if got := testing.AllocsPerRun(20, run); got != 0 {
				t.Errorf("mode %d query %d: %v allocs per Search, want 0", mode, k, got)
			}
			verify.Release(ses)
		}
	}
}

// TestSearchTopKBounded: a top-k list is the same whether K is the
// candidate count or far beyond anything allocatable, and a small K is
// the prefix of the full ranking.
func TestSearchTopKBounded(t *testing.T) {
	s, qs := batchTestIndex(t)
	m := bitvec.BraunBlanquetMeasure
	rng := hashing.NewSplitMix64(9)
	for k, q := range qs {
		all, _ := queryTopK(s, q, 1<<40, m)
		if full, _ := queryTopK(s, q, 10_000, m); !slices.Equal(all, full) {
			t.Fatalf("query %d: K=1<<40 %v, K=10000 %v", k, all, full)
		}
		cut := int(rng.NextBelow(4)) + 1
		if top, _ := queryTopK(s, q, cut, m); !slices.Equal(top, all[:min(cut, len(all))]) {
			t.Fatalf("query %d: K=%d %v, want the prefix of %v", k, cut, top, all)
		}
	}
}
