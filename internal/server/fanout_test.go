package server

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"runtime"
	"sync"
	"testing"
	"time"

	"skewsim/internal/bitvec"
	"skewsim/internal/core"
	"skewsim/internal/datagen"
	"skewsim/internal/dist"
	"skewsim/internal/obs"
	"skewsim/internal/segment"
	"skewsim/internal/stats"
	"skewsim/internal/verify"
)

// plantedAlpha is the correlation the planted queries are drawn with
// (the benchmark's sparse-first workload uses the same).
const plantedAlpha = 2.0 / 3

// plantedWorkload is the sparse-first shape in miniature: a 25-bit Zipf
// corpus, queries q ~ D_α(x) planted on known targets, the correlated
// engine the daemon derives from an estimate of the corpus, and its
// mode-first threshold α/1.3. Everything follows from seed.
func plantedWorkload(tb testing.TB, n, queries, shards int, seed uint64) (Config, *datagen.CorrelatedWorkload, float64) {
	tb.Helper()
	cw, err := datagen.NewCorrelatedWorkload(dist.MustProduct(dist.Zipf(2000, 0.5, 0.6)), n, queries, plantedAlpha, seed)
	if err != nil {
		tb.Fatal(err)
	}
	est, err := dist.EstimateProduct(cw.Data, 0)
	if err != nil {
		tb.Fatal(err)
	}
	params, err := core.EngineParams(core.Correlated, est, n, plantedAlpha, core.Options{Seed: 1, Repetitions: 6})
	if err != nil {
		tb.Fatal(err)
	}
	thr, err := core.VerificationThreshold(core.Correlated, plantedAlpha)
	if err != nil {
		tb.Fatal(err)
	}
	cfg := Config{Shards: shards, MaxQueue: -1, Segment: segment.Config{Params: params, N: n, MemtableSize: 1024, MaxSegments: 4}}
	return cfg, cw, thr
}

// loadFrozen loads data and freezes every shard's memtable into one
// segment, so the layout — and with it every tie-break — is the same on
// every run.
func loadFrozen(tb testing.TB, cfg Config, data []bitvec.Vector) *Server {
	tb.Helper()
	srv, err := New(cfg)
	if err != nil {
		tb.Fatalf("New: %v", err)
	}
	tb.Cleanup(func() { srv.WaitIdle(); srv.Close() })
	if _, err := srv.InsertBatch(data); err != nil {
		tb.Fatalf("InsertBatch: %v", err)
	}
	srv.Flush()
	srv.WaitIdle()
	return srv
}

// closeTo is the BeNumerically("~", want, tol) assertion.
func closeTo(t *testing.T, what string, got, want, tol float64) {
	t.Helper()
	if math.Abs(got-want) > tol {
		t.Errorf("%s = %v, want %v ± %v", what, got, want, tol)
	}
}

// TestFanoutFirstStopsAtTheFirstHit: a sharded mode-first search finds
// exactly what one unsharded index finds, counts the stopped and skipped
// shards as answered, and does no more work than the early exit allows —
// to the filter when the fan-out is serial (Workers = 1), within a
// constant when every shard has its own goroutine.
func TestFanoutFirstStopsAtTheFirstHit(t *testing.T) {
	const n, queries = 1000, 120
	m := bitvec.BraunBlanquetMeasure
	for _, seed := range []uint64{1, 5} {
		cfg, cw, thr := plantedWorkload(t, n, queries, 1, seed)
		eng, err := segment.NewEngines(cfg.Segment)
		if err != nil {
			t.Fatal(err)
		}
		segCfg := cfg.Segment
		segCfg.Engines = eng
		single, err := segment.New(segCfg)
		if err != nil {
			t.Fatal(err)
		}
		for id, v := range cw.Data {
			if err := single.InsertWithID(int64(id), v); err != nil {
				t.Fatal(err)
			}
		}
		wantFound := make([]bool, queries)
		for k, q := range cw.Queries {
			res, _ := segmentSearch(single, eng, q, m, segment.Request{Mode: segment.ModeFirst, Thresholds: []float64{thr}})
			wantFound[k] = res.Found
		}
		single.WaitIdle()
		single.Close()

		for _, shards := range []int{1, 2, 4} {
			cfg.Shards = shards
			metrics := NewMetrics(obs.NewRegistry())
			cfg.Metrics = metrics
			srv := loadFrozen(t, cfg, cw.Data)
			for _, workers := range []int{1, shards}[:min(shards, 2)] {
				t.Run(fmt.Sprintf("seed=%d/shards=%d/workers=%d", seed, shards, workers), func(t *testing.T) {
					srv.workers = workers
					stoppedBefore := metrics.StoppedShards.Value()
					var ratios []float64
					var wantStopped int64
					for k, q := range cw.Queries {
						match, work, found, f := srv.QueryContext(context.Background(), q, thr, m)
						if found != wantFound[k] {
							t.Fatalf("query %d: sharded found=%v, unsharded found=%v", k, found, wantFound[k])
						}
						if found && match.Similarity < thr {
							t.Fatalf("query %d: hit %v below threshold %v", k, match, thr)
						}
						if !f.Complete() || len(f.Errs) != 0 {
							t.Fatalf("query %d: fan-out answered %d/%d, errs %v", k, f.Answered, f.Shards, f.Errs)
						}
						// What a serial pass does, shard by shard: every shard up
						// to the first that hits, that one only to its hit, the
						// ones behind it not at all.
						serial, stops, first := 0, 0, segment.QueryStats{}
						for i, sh := range srv.shards {
							res, own := segmentSearch(sh, srv.eng, q, m, segment.Request{Mode: segment.ModeFirst, Thresholds: []float64{thr}})
							hit := res.Found
							serial += own.Filters
							if i == 0 && hit {
								first = own
							}
							if hit {
								stops = shards - 1 - i
								break
							}
						}
						if workers == 1 {
							wantStopped += int64(stops)
							if work.Filters != serial {
								t.Fatalf("query %d: serial fan-out walked %d filters, its shards alone walk %d", k, work.Filters, serial)
							}
						}
						// With helpers, early exit is judged on the queries shard 0
						// answers: the caller starts there.
						if first.Filters > 0 {
							ratios = append(ratios, float64(work.Filters)/float64(first.Filters))
						}
					}
					if len(ratios) < queries/(2*shards) {
						t.Fatalf("only %d of %d queries hit in shard 0; the early-exit check is vacuous", len(ratios), queries)
					}
					// A helper may run its shard until it sees the stop: at most
					// about what the caller walked, plus a checkpoint stride.
					// On the benchmark's two shards that is the 3× of ISSUE 16,
					// against ≈ 6× before.
					if got, bound := stats.Quantile(ratios, 0.5), float64(shards+1); got > bound {
						t.Errorf("median filters walked = %.2f× the answering shard's own, want ≤ %.0f×", got, bound)
					}
					if workers == 1 {
						closeTo(t, "skewsim_fanout_stopped_shards_total", float64(metrics.StoppedShards.Value()-stoppedBefore), float64(wantStopped), 0)
					}
					closeTo(t, "skewsim_fanout_partial_total", float64(metrics.PartialFanouts.Value()), 0, 0)
					closeTo(t, "skewsim_fanout_abandoned_shards_total", float64(metrics.AbandonedShards.Value()), 0, 0)
				})
			}
		}
	}
}

// goldenDigest is the FNV-64a digest of every mode best, top-k and batch
// answer (found, id, similarity bits, in query order) over the seed-1
// planted corpus, recorded at the parent commit (cc59cbb) by
// answersDigest below. It is one value for every shard count — sharding
// never changed an answer — and must stay that value: the modes without
// an early exit answer byte for byte as before the fan-out was replaced.
const goldenDigest = 0xe66f0036af7cffc9

// parentDigests extends goldenDigest to the planted corpora of more
// seeds, recorded at commit 71ef6ee, where every shard still generated
// its own filter sets: sharing one query plan across shards must not
// move a single answer either.
var parentDigests = map[uint64]uint64{1: goldenDigest, 2: 0x2aac1896b42057b3, 3: 0xfb23410e2368c665}

func answersDigest(srv *Server, qs []bitvec.Vector, thr float64) uint64 {
	h := fnv.New64a()
	put := func(found bool, mt segment.Match) {
		var b [17]byte
		if found {
			b[0] = 1
		}
		binary.LittleEndian.PutUint64(b[1:], uint64(mt.ID))
		binary.LittleEndian.PutUint64(b[9:], math.Float64bits(mt.Similarity))
		h.Write(b[:])
	}
	m := bitvec.BraunBlanquetMeasure
	for _, q := range qs {
		mt, _, found := queryBest(srv, q, m)
		put(found, mt)
		top, _ := queryTopK(srv, q, 5, m)
		for _, mt := range top {
			put(true, mt)
		}
	}
	thresholds := make([]float64, len(qs))
	for i := range thresholds {
		thresholds[i] = thr
	}
	for _, ths := range [][]float64{nil, thresholds} {
		res, _ := searchBatch(srv, qs, ths, m)
		for _, r := range res {
			put(r.Found, r.Match)
		}
	}
	return h.Sum64()
}

func TestFanoutOtherModesMatchParent(t *testing.T) {
	for seed, want := range parentDigests {
		for _, shards := range []int{1, 2, 4} {
			cfg, cw, thr := plantedWorkload(t, 1000, 100, shards, seed)
			srv := loadFrozen(t, cfg, cw.Data)
			for _, workers := range []int{1, shards}[:min(shards, 2)] {
				srv.workers = workers
				if got := answersDigest(srv, cw.Queries, thr); got != want {
					t.Errorf("seed=%d shards=%d workers=%d: answers digest %#x, parent's %#x", seed, shards, workers, got, want)
				}
			}
		}
	}
}

// TestFaultStallCallerShard: shard 0 runs on the calling goroutine, so
// its stall is ended by the context (cooperatively), not abandoned; the
// helpers' shards answer meanwhile and the request returns at the
// deadline. With a serial fan-out the shards behind it never start.
func TestFaultStallCallerShard(t *testing.T) {
	for _, workers := range []int{4, 1} {
		cfg := testConfig(t, 400, 2, 4)
		cfg.Workers = workers
		metrics := NewMetrics(obs.NewRegistry())
		cfg.Metrics = metrics
		srv, data := newFaultServer(t, cfg, 400)
		_, restore := stallShard(0)

		const deadline = 250 * time.Millisecond
		start := time.Now()
		ctx, cancel := context.WithTimeout(context.Background(), deadline)
		_, _, _, f := srv.QueryContext(ctx, data[3], 0.5, bitvec.BraunBlanquetMeasure)
		elapsed := time.Since(start)
		cancel()
		restore()

		if elapsed < deadline || elapsed > deadline+2*time.Second {
			t.Errorf("workers=%d: returned after %v, deadline %v", workers, elapsed, deadline)
		}
		if len(f.Errs) == 0 || f.Errs[0].Shard != 0 || f.Errs[0].Stage != StageRunning {
			t.Fatalf("workers=%d: errs %v, want shard 0 running first", workers, f.Errs)
		}
		if workers == 4 {
			if !f.Partial() || f.Answered != 3 || len(f.Errs) != 1 {
				t.Errorf("answered %d/4, errs %v; want the three helper shards", f.Answered, f.Errs)
			}
		} else {
			if f.Answered != 0 || len(f.Errs) != 4 || f.Err() == nil {
				t.Errorf("serial fan-out behind a stalled shard 0: answered %d, errs %v", f.Answered, f.Errs)
			}
			for _, e := range f.Errs[1:] {
				if e.Stage != StageQueued {
					t.Errorf("shard %d never started but reports stage %q", e.Shard, e.Stage)
				}
			}
		}
		closeTo(t, "abandoned shards", float64(metrics.AbandonedShards.Value()), 0, 0)
		closeTo(t, "admission slots held", float64(srv.gate.inflight()), 0, 0)
	}
}

// TestFaultStallHelperShard: a helper-run shard that is still stalled at
// the deadline is abandoned — the request returns without it, on time —
// and gives the admission slot back when it finally finishes.
func TestFaultStallHelperShard(t *testing.T) {
	cfg := testConfig(t, 400, 2, 4)
	cfg.Workers = 4
	metrics := NewMetrics(obs.NewRegistry())
	cfg.Metrics = metrics
	srv, data := newFaultServer(t, cfg, 400)
	restore := stallHelperShard(2)
	defer restore()

	const deadline = 250 * time.Millisecond
	start := time.Now()
	ctx, cancel := context.WithTimeout(context.Background(), deadline)
	defer cancel()
	_, _, f := srv.Search(ctx, Request{Queries: data[3:4], Measure: bitvec.BraunBlanquetMeasure, Mode: segment.ModeTopK, K: 5})
	if elapsed := time.Since(start); elapsed < deadline || elapsed > deadline+2*time.Second {
		t.Errorf("returned after %v, deadline %v", elapsed, deadline)
	}
	if !f.Partial() || f.Answered != 3 || len(f.Errs) != 1 || f.Errs[0].Shard != 2 || f.Errs[0].Stage != StageRunning {
		t.Fatalf("answered %d/4, errs %v; want shard 2 running", f.Answered, f.Errs)
	}
	closeTo(t, "abandoned shards", float64(metrics.AbandonedShards.Value()), 1, 0)
	closeTo(t, "admission slots held by the straggler", float64(srv.gate.inflight()), 1, 0)

	restore()
	waitFor(t, "the straggler to release its admission slot", func() bool { return srv.gate.inflight() == 0 })
}

func waitFor(t *testing.T, what string, ok func() bool) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); !ok(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// TestFanoutMixedLoadLeavesNothingBehind: 1 000 queries of every mode
// from 8 goroutines, some with a deadline that has already passed —
// every complete answer is the one a lone caller gets, and afterwards
// no admission slot is held, no verify session sits in its pool twice,
// and every helper goroutine is gone.
func TestFanoutMixedLoadLeavesNothingBehind(t *testing.T) {
	cfg, cw, thr := plantedWorkload(t, 1200, 125, 4, 3)
	srv := loadFrozen(t, cfg, cw.Data)
	m := bitvec.BraunBlanquetMeasure
	wantBest := make([]segment.Match, len(cw.Queries))
	wantFound := make([]bool, len(cw.Queries))
	for k, q := range cw.Queries {
		wantBest[k], _, _ = queryBest(srv, q, m)
		_, _, wantFound[k] = queryFirst(srv, q, thr, m)
	}
	baseline := runtime.NumGoroutine()

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k, q := range cw.Queries {
				ctx, cancel := context.Background(), context.CancelFunc(func() {})
				if (k+g)%10 == 0 {
					ctx, cancel = context.WithDeadline(ctx, time.Now().Add(-time.Second))
				}
				var f *Fanout
				ok := true
				switch (k + g) % 4 {
				case 0:
					var found bool
					_, _, found, f = srv.QueryContext(ctx, q, thr, m)
					ok = found == wantFound[k]
				case 1:
					var best segment.Match
					best, _, _, f = srv.QueryBestContext(ctx, q, m)
					ok = best == wantBest[k]
				case 2:
					var res []segment.Result
					res, _, f = srv.Search(ctx, Request{Queries: []bitvec.Vector{q}, Measure: m, Mode: segment.ModeTopK, K: 3})
					top := res[0].Matches
					ok = len(top) == 0 || top[0].Similarity == wantBest[k].Similarity
				default:
					var res []segment.Result
					res, _, f = srv.Search(ctx, Request{Queries: cw.Queries[k:min(k+4, len(cw.Queries))], Measure: m})
					ok = len(res) == 0 || res[0].Match.Similarity == wantBest[k].Similarity
				}
				cancel()
				if ctx.Err() != nil {
					continue
				}
				if !f.Complete() {
					t.Errorf("goroutine %d query %d: answered %d/%d, errs %v", g, k, f.Answered, f.Shards, f.Errs)
				} else if !ok {
					t.Errorf("goroutine %d query %d (mode %d): answer differs from the lone caller's", g, k, (k+g)%4)
				}
			}
		}(g)
	}
	wg.Wait()

	waitFor(t, "helpers to exit and slots to drain", func() bool {
		return srv.gate.inflight() == 0 && runtime.NumGoroutine() <= baseline
	})
	seen := make(map[*verify.Session]bool)
	for i := 0; i < 64; i++ {
		ses := verify.Acquire(m, cw.Queries[0])
		if seen[ses] {
			t.Fatal("a verify session was released twice: the pool handed it out to two holders")
		}
		seen[ses] = true
	}
	for ses := range seen {
		verify.Release(ses)
	}
}
