package segment

import (
	"context"
	"errors"
	"io"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"skewsim/internal/bitvec"
	"skewsim/internal/faultinject"
	"skewsim/internal/hashing"
	"skewsim/internal/verify"
)

// TestConcurrentMutation interleaves Insert/Delete/Query/TopK/Flush/
// Stats/Snapshot across goroutines while the background worker freezes
// and compacts. Run under -race (the CI race job does) this is the
// concurrency acceptance test; the assertions check the index stays
// internally consistent under the barrage.
func TestConcurrentMutation(t *testing.T) {
	const (
		inserters   = 3
		queriers    = 3
		perInserter = 400
	)
	d := testDist(t)
	params := testParams(d, 1024, 3, 77)
	s, err := New(Config{Params: params, N: 1024, MemtableSize: 64, MaxSegments: 3})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer s.Close()

	var wg sync.WaitGroup
	var inserted, deleted atomic.Int64

	for w := 0; w < inserters; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := hashing.NewSplitMix64(uint64(1000 + w))
			for i := 0; i < perInserter; i++ {
				id, err := s.Insert(d.Sample(rng))
				if err != nil {
					t.Errorf("Insert: %v", err)
					return
				}
				inserted.Add(1)
				if i%7 == 3 {
					// Delete an id this goroutine just created so the
					// inserted/deleted accounting stays exact.
					if s.Delete(id) {
						deleted.Add(1)
					} else {
						t.Errorf("Delete(%d) of own insert failed", id)
						return
					}
				}
			}
		}(w)
	}
	for w := 0; w < queriers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := hashing.NewSplitMix64(uint64(2000 + w))
			m := bitvec.BraunBlanquetMeasure
			for i := 0; i < 300; i++ {
				q := d.Sample(rng)
				switch i % 4 {
				case 0:
					// An insert is query-visible the moment Insert's
					// critical section ends, so any returned id is fair
					// game — just exercise the path.
					queryBest(s, q, m)
				case 1:
					queryTopK(s, q, 5, m)
				case 2:
					if _, qs := s.CandidatesExt(q); qs.Reps != s.Repetitions() {
						t.Errorf("stats reps %d", qs.Reps)
						return
					}
				case 3:
					queryFirst(s, q, 0.9, m)
				}
				if i%50 == 0 {
					s.Stats()
				}
				if i%120 == 110 {
					if _, err := s.WriteSnapshot(io.Discard); err != nil {
						t.Errorf("WriteSnapshot: %v", err)
						return
					}
				}
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 5; i++ {
			s.Flush()
		}
	}()

	wg.Wait()
	s.Flush()
	s.WaitIdle()
	st := s.Stats()
	wantLive := int(inserted.Load() - deleted.Load())
	if st.Live != wantLive {
		t.Fatalf("live = %d, want %d (%+v)", st.Live, wantLive, st)
	}
	if st.Memtable != 0 || st.Flushing != 0 {
		t.Fatalf("flush left mutable state: %+v", st)
	}
	if st.Freezes == 0 {
		t.Fatalf("background worker froze nothing: %+v", st)
	}
	if st.Compactions == 0 {
		t.Fatalf("background worker compacted nothing: %+v", st)
	}
}

// TestConcurrentBatchSearch runs SearchBatch (plain and with contexts
// that cancel mid-batch) against a barrage of inserts, deletes,
// freezes, and compactions — with the slow-freeze fault point armed so
// freezes stay in flight while batches traverse the flushing list. Run
// under -race this is the batch path's concurrency acceptance test:
// every batch must see one consistent snapshot (no torn reads, no
// panics), and a canceled batch must return the context error without
// corrupting pooled state for the next caller.
func TestConcurrentBatchSearch(t *testing.T) {
	const (
		inserters   = 2
		batchers    = 3
		perInserter = 300
		batchSize   = 6
	)
	d := testDist(t)
	params := testParams(d, 1024, 3, 78)
	s, err := New(Config{Params: params, N: 1024, MemtableSize: 48, MaxSegments: 3})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer s.Close()

	// Widen the freeze window: each freeze yields the CPU a few times so
	// batches overlap the flushing-list state far more often.
	restore := faultinject.Set(faultinject.SegmentSlowFreeze, func(...any) error {
		for i := 0; i < 4; i++ {
			runtime.Gosched()
		}
		return nil
	})
	defer restore()

	// Seed enough data that batches have candidates from the start.
	rngSeed := hashing.NewSplitMix64(500)
	for i := 0; i < 128; i++ {
		if _, err := s.Insert(d.Sample(rngSeed)); err != nil {
			t.Fatalf("seed Insert: %v", err)
		}
	}

	var wg sync.WaitGroup
	for w := 0; w < inserters; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := hashing.NewSplitMix64(uint64(3000 + w))
			for i := 0; i < perInserter; i++ {
				id, err := s.Insert(d.Sample(rng))
				if err != nil {
					t.Errorf("Insert: %v", err)
					return
				}
				if i%5 == 2 && !s.Delete(id) {
					t.Errorf("Delete(%d) of own insert failed", id)
					return
				}
			}
		}(w)
	}
	for w := 0; w < batchers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := hashing.NewSplitMix64(uint64(4000 + w))
			m := bitvec.BraunBlanquetMeasure
			for i := 0; i < 120; i++ {
				sess := make([]*verify.Session, batchSize)
				for k := range sess {
					sess[k] = verify.Acquire(m, d.Sample(rng))
				}
				switch i % 3 {
				case 0: // plain batch, best-match mode
					res, _, _ := searchBatch(s, nil, sess, nil)
					if len(res) != batchSize {
						t.Errorf("batch returned %d results, want %d", len(res), batchSize)
					}
				case 1: // threshold mode through an un-canceled context
					th := make([]float64, batchSize)
					for k := range th {
						th[k] = 0.6
					}
					ctx, cancel := context.WithCancel(context.Background())
					if _, _, err := searchBatch(s, ctx, sess, th); err != nil {
						t.Errorf("batch Search: %v", err)
					}
					cancel()
				case 2: // cancellation racing the batch mid-flight
					ctx, cancel := context.WithCancel(context.Background())
					done := make(chan struct{})
					go func() {
						runtime.Gosched()
						cancel()
						close(done)
					}()
					_, _, err := searchBatch(s, ctx, sess, nil)
					if err != nil && !errors.Is(err, context.Canceled) {
						t.Errorf("canceled batch returned %v", err)
					}
					<-done
				}
				for k := range sess {
					verify.Release(sess[k])
				}
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 4; i++ {
			s.Flush()
		}
	}()

	wg.Wait()
	s.Flush()
	s.WaitIdle()
	if st := s.Stats(); st.Freezes == 0 {
		t.Fatalf("background worker froze nothing: %+v", st)
	}
}
