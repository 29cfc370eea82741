package server

import (
	"fmt"
	"sync/atomic"
	"testing"

	"skewsim/internal/bitvec"
	"skewsim/internal/bruteforce"
	"skewsim/internal/core"
	"skewsim/internal/datagen"
	"skewsim/internal/dist"
	"skewsim/internal/faultinject"
	"skewsim/internal/lsf"
	"skewsim/internal/obs"
	"skewsim/internal/segment"
)

// countFilterGen arms the plan hook: the counter adds one per (query,
// repetition) filter set generated, on any shard. Call restore to disarm.
func countFilterGen() (gen *atomic.Int64, restore func()) {
	gen = new(atomic.Int64)
	restore = faultinject.Set(faultinject.SegmentPlanned, func(args ...any) error {
		gen.Add(int64(args[1].(int)))
		return nil
	})
	return gen, restore
}

// TestPlanGeneratesEachFilterSetOnce: a request generates each (query,
// repetition) filter set once however many shards probe it — exactly
// once in the modes that walk every repetition, at most once in mode
// first, which may stop before the last; per-shard generation would
// count repetitions × shards.
func TestPlanGeneratesEachFilterSetOnce(t *testing.T) {
	const queries, batch = 64, 8
	m := bitvec.BraunBlanquetMeasure
	for _, shards := range []int{1, 2, 4} {
		cfg, cw, thr := plantedWorkload(t, 1000, queries, shards, 2)
		reps := float64(len(cfg.Segment.Params))
		srv := loadFrozen(t, cfg, cw.Data)
		for _, workers := range []int{1, shards}[:min(shards, 2)] {
			t.Run(fmt.Sprintf("shards=%d/workers=%d", shards, workers), func(t *testing.T) {
				srv.workers = workers
				gen, restore := countFilterGen()
				defer restore()
				generated := func(request func()) float64 {
					before := gen.Load()
					request()
					return float64(gen.Load() - before)
				}
				for k, q := range cw.Queries {
					closeTo(t, fmt.Sprintf("query %d best filter sets", k), generated(func() { queryBest(srv, q, m) }), reps, 0)
					closeTo(t, fmt.Sprintf("query %d top-k filter sets", k), generated(func() { queryTopK(srv, q, 5, m) }), reps, 0)
					if got := generated(func() { queryFirst(srv, q, thr, m) }); got < 1 || got > reps {
						t.Errorf("query %d first: %v filter sets, want 1 to %v", k, got, reps)
					}
				}
				for lo := 0; lo < queries; lo += batch {
					qs := cw.Queries[lo : lo+batch]
					closeTo(t, fmt.Sprintf("batch %d filter sets", lo/batch), generated(func() { searchBatch(srv, qs, nil, m) }), reps*batch, 0)
				}
			})
		}
	}
}

// TestTruncationFallbackAgrees: with paths capped at one element, none
// of them rare enough to complete, no vector has a filter, so no query
// has a candidate; a budget of one path truncates every generation that
// keeps two paths alive. Which queries truncate in every repetition is
// read off the lsf engines themselves, and their answers off an exact
// scan (bruteforce): a SegmentedIndex, a core.Index and a server at 1,
// 2 and 4 shards must fall back exactly for those queries and agree
// with the scan, query by query on found and similarity, in every mode.
func TestTruncationFallbackAgrees(t *testing.T) {
	const n, queries = 600, 40
	// Every p_i is above 1/n: no single element completes a path.
	d := dist.MustProduct(dist.Zipf(2000, 0.5, 0.6))
	cw, err := datagen.NewCorrelatedWorkload(d, n, queries, plantedAlpha, 7)
	if err != nil {
		t.Fatal(err)
	}
	opt := core.Options{Seed: 1, Repetitions: 4, MaxDepth: 1, MaxFiltersPerVector: 1}
	params, err := core.EngineParams(core.Correlated, d, n, plantedAlpha, opt)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := core.BuildCorrelated(d, cw.Data, plantedAlpha, opt)
	if err != nil {
		t.Fatal(err)
	}
	exact, err := bruteforce.Build(cw.Data, bruteforce.Options{})
	if err != nil {
		t.Fatal(err)
	}
	reps := make([]*lsf.Engine, len(params))
	for r, p := range params {
		if reps[r], err = lsf.NewEngine(n, p); err != nil {
			t.Fatal(err)
		}
		ix, err := lsf.BuildIndex(reps[r], cw.Data)
		if err != nil {
			t.Fatal(err)
		}
		if st := ix.Stats(); st.TotalFilters != 0 {
			t.Fatalf("repetition %d indexes %d filters; queries would have candidates", r, st.TotalFilters)
		}
	}
	allTruncated := func(q bitvec.Vector) bool {
		for _, e := range reps {
			var fs lsf.FilterSet
			if e.FiltersInto(q, &fs); !fs.Truncated {
				return false
			}
		}
		return true
	}
	thr := ref.Threshold()
	m := bitvec.BraunBlanquetMeasure
	segCfg := segment.Config{Params: params, N: n, MemtableSize: 256, MaxSegments: 4}
	eng, err := segment.NewEngines(segCfg)
	if err != nil {
		t.Fatal(err)
	}
	segCfg.Engines = eng
	single, err := segment.New(segCfg)
	if err != nil {
		t.Fatal(err)
	}
	defer single.Close()
	for id, v := range cw.Data {
		if err := single.InsertWithID(int64(id), v); err != nil {
			t.Fatal(err)
		}
	}
	single.WaitIdle()

	type answer struct {
		found bool
		sim   float64
	}
	check := func(what string, k int, got, want answer) {
		t.Helper()
		if got != want {
			t.Errorf("%s query %d: found=%v similarity=%v, want found=%v similarity=%v", what, k, got.found, got.sim, want.found, want.sim)
		}
	}
	firstWant := make([]answer, queries)
	bestWant := make([]answer, queries) // nothing found unless the query falls back
	fell := make([]int, queries)        // 1 where every repetition truncated
	hits, fallbacks := 0, 0
	for k, q := range cw.Queries {
		if allTruncated(q) {
			fell[k] = 1
			fallbacks++
			f, b := exact.Query(q, thr), exact.QueryBest(q)
			firstWant[k], bestWant[k] = answer{f.Found, f.Similarity}, answer{b.Found, b.Similarity}
		}
		if firstWant[k].found {
			hits++
		}

		res := ref.Query(q)
		check("core first", k, answer{res.Found, res.Similarity}, firstWant[k])
		closeTo(t, "core first FellBack", float64(res.Stats.FellBack), float64(fell[k]), 0)
		res = ref.QueryBest(q)
		check("core best", k, answer{res.Found, res.Similarity}, bestWant[k])
		sr, st := segmentSearch(single, eng, q, m, segment.Request{Mode: segment.ModeFirst, Thresholds: []float64{thr}})
		check("segment first", k, answer{sr.Found, sr.Match.Similarity}, firstWant[k])
		closeTo(t, "segment first FellBack", float64(st.FellBack), float64(fell[k]), 0)
		sr, _ = segmentSearch(single, eng, q, m, segment.Request{Mode: segment.ModeBest})
		check("segment best", k, answer{sr.Found, sr.Match.Similarity}, bestWant[k])
	}
	if fallbacks < 3*queries/4 || hits < queries/2 {
		t.Fatalf("%d of %d queries fell back, %d have a match at %v; the comparison is vacuous", fallbacks, queries, hits, thr)
	}

	for _, shards := range []int{1, 2, 4} {
		metrics := NewMetrics(obs.NewRegistry())
		srv := loadFrozen(t, Config{Shards: shards, MaxQueue: -1, Metrics: metrics, Segment: segCfg}, cw.Data)
		name := func(mode string) string { return fmt.Sprintf("shards=%d %s", shards, mode) }
		fellBack := 0 // Σ stats.FellBack, what the counter must have seen
		for k, q := range cw.Queries {
			mt, st, found := queryFirst(srv, q, thr, m)
			check(name("first"), k, answer{found, mt.Similarity}, firstWant[k])
			if (st.FellBack > 0) != (fell[k] > 0) {
				t.Errorf("%s query %d: stats %+v, every repetition truncated: %v", name("first"), k, st, fell[k] > 0)
			}
			fellBack += st.FellBack
			mt, st, found = queryBest(srv, q, m)
			check(name("best"), k, answer{found, mt.Similarity}, bestWant[k])
			closeTo(t, name("best FellBack"), float64(st.FellBack), float64(shards*fell[k]), 0)
			fellBack += st.FellBack
			top, st := queryTopK(srv, q, 3, m)
			got := answer{}
			if len(top) > 0 {
				got = answer{true, top[0].Similarity}
			}
			check(name("top-k"), k, got, bestWant[k])
			fellBack += st.FellBack
		}
		thresholds := make([]float64, queries)
		for k := range thresholds {
			thresholds[k] = thr
		}
		for _, ths := range [][]float64{nil, thresholds} {
			want := bestWant
			if ths != nil {
				want = firstWant
			}
			res, st := searchBatch(srv, cw.Queries, ths, m)
			for k, r := range res {
				check(name(fmt.Sprintf("batch thresholds=%v", ths != nil)), k, answer{r.Found, r.Match.Similarity}, want[k])
			}
			closeTo(t, name("batch FellBack"), float64(st.FellBack), float64(shards*fallbacks), 0)
			fellBack += st.FellBack
		}
		closeTo(t, name("skewsim_query_fellback_total"), float64(metrics.Segment.QueryFellBack.Value()), float64(fellBack), 0)
	}
}
