package segment

import (
	"context"
	"sync"
	"testing"
	"time"

	"skewsim/internal/bitvec"
	"skewsim/internal/hashing"
	"skewsim/internal/lsf"
	"skewsim/internal/verify"
)

// planIndex is a frozen index over n sampled vectors, returned with them.
func planIndex(t *testing.T, n, reps int) (*SegmentedIndex, []bitvec.Vector) {
	t.Helper()
	d := testDist(t)
	s, err := New(Config{Params: testParams(d, n, reps, 7), N: n, MemtableSize: 128, MaxSegments: 4})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	t.Cleanup(s.Close)
	data := d.SampleN(hashing.NewSplitMix64(3), n)
	for _, v := range data {
		if _, err := s.Insert(v); err != nil {
			t.Fatalf("Insert: %v", err)
		}
	}
	s.Flush()
	s.WaitIdle()
	return s, data
}

type bestAnswer struct {
	match Match
	stats QueryStats
	found bool
	err   error
}

// searchBestPlan runs ses's query in mode best over the shared plan p.
func searchBestPlan(s *SegmentedIndex, cc *lsf.CancelCheck, p *Plan, ses *verify.Session) bestAnswer {
	res, stats, err := s.Search(cc, p, Request{Sessions: []*verify.Session{ses}, Mode: ModeBest})
	return bestAnswer{res[0].Match, stats, res[0].Found, err}
}

// TestFaultPlanCanceledRepetitionRecomputed: a sibling traversal that is
// cut short while computing a plan repetition hands it back, and the
// live traversal waiting on it — having planned every other repetition
// meanwhile — computes it itself and answers exactly as an unshared
// plan does.
func TestFaultPlanCanceledRepetitionRecomputed(t *testing.T) {
	const reps = 4
	s, data := planIndex(t, 400, reps)
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	m := bitvec.BraunBlanquetMeasure
	for k, q := range data[:20] {
		if q.IsEmpty() {
			continue // its generation has no checkpoint to cut short
		}
		ses := verify.Acquire(m, q)
		var want bestAnswer
		want.match, want.stats, want.found, _ = s.QueryBestWithContext(nil, ses)

		p := NewPlan(s.eng)
		p.Reset(q)
		// A sibling claims repetition 0 ...
		if !p.reps[0].state.CompareAndSwap(repOpen, repBusy) {
			t.Fatal("fresh plan: repetition 0 not open")
		}
		done := make(chan bestAnswer, 1)
		go func() {
			var a bestAnswer
			a = searchBestPlan(s, nil, p, ses)
			done <- a
		}()
		// ... the live traversal plans every later repetition and waits ...
		for r := 1; r < reps; r++ {
			for deadline := time.Now().Add(10 * time.Second); p.reps[r].state.Load() != repDone; time.Sleep(10 * time.Microsecond) {
				if time.Now().After(deadline) {
					t.Fatalf("query %d: repetition %d never planned ahead", k, r)
				}
			}
		}
		// ... and the sibling's computation is cut short.
		if p.compute(0, lsf.NewCancelCheck(canceled)) {
			t.Fatalf("query %d: a canceled computation completed", k)
		}
		got := <-done
		if got != want {
			t.Fatalf("query %d: over the recovered plan %+v, unshared %+v", k, got, want)
		}
		if p.reps[0].state.Load() != repDone {
			t.Fatalf("query %d: repetition 0 not recomputed", k)
		}
		verify.Release(ses)
	}
}

// TestFaultPlanSharedUnderCancellation: traversals sharing one plan —
// half of them cut short by an expired context at any point — never
// hang, and every live one answers as an unshared plan does (so does an
// expired one that met no checkpoint before the end).
func TestFaultPlanSharedUnderCancellation(t *testing.T) {
	s, data := planIndex(t, 400, 6)
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	m := bitvec.BraunBlanquetMeasure
	for k, q := range data[:40] {
		ses := verify.Acquire(m, q)
		var want bestAnswer
		want.match, want.stats, want.found, _ = s.QueryBestWithContext(nil, ses)
		p := NewPlan(s.eng)
		p.Reset(q)
		var wg sync.WaitGroup
		answers := make([]bestAnswer, 6)
		for g := range answers {
			wg.Add(1)
			go func() {
				defer wg.Done()
				var cc *lsf.CancelCheck
				if g%2 == 1 {
					cc = lsf.NewCancelCheck(canceled)
				}
				a := &answers[g]
				*a = searchBestPlan(s, cc, p, ses)
			}()
		}
		wg.Wait()
		for g, a := range answers {
			if a != want && (g%2 == 0 || a.err == nil) {
				t.Fatalf("query %d traversal %d: shared plan %+v, unshared %+v", k, g, a, want)
			}
		}
		verify.Release(ses)
	}
}
