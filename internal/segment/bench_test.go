package segment

import (
	"math"
	"slices"
	"testing"
	"time"

	"skewsim/internal/bitvec"
	"skewsim/internal/datagen"
	"skewsim/internal/dist"
	"skewsim/internal/hashing"
	"skewsim/internal/lsf"
	"skewsim/internal/obs"
	"skewsim/internal/verify"
)

// benchIndex builds a segmented index over n Zipf vectors. layered=true
// leaves the LSM shape ragged (several frozen segments plus a live
// memtable); layered=false compacts everything into one frozen segment,
// which is the static-index baseline the layered overhead is measured
// against. A non-nil metrics sink arms the observability hot path.
func benchIndex(b *testing.B, n int, layered bool, metrics *Metrics) (*SegmentedIndex, []bitvec.Vector) {
	b.Helper()
	d, err := dist.NewProduct(dist.Zipf(256, 0.5, 1.0))
	if err != nil {
		b.Fatal(err)
	}
	cfg := Config{Params: testParams(d, n, 4, 9), N: n, MemtableSize: n / 8, MaxSegments: 100, Metrics: metrics}
	if !layered {
		cfg.MaxSegments = 1
	}
	s, err := New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(s.Close)
	rng := hashing.NewSplitMix64(17)
	for _, v := range d.SampleN(rng, n) {
		if _, err := s.Insert(v); err != nil {
			b.Fatal(err)
		}
	}
	if !layered {
		s.Flush()
	}
	s.WaitIdle()
	return s, d.SampleN(rng, 256)
}

// BenchmarkSegmentedQuery compares query cost through the layered shape
// (memtable + several frozen segments) against the fully compacted
// single-segment form — the price of servability over the frozen-only
// index, per query — and, on a bulk-loaded index, a mode-first batch
// against the same queries one at a time.
func BenchmarkSegmentedQuery(b *testing.B) {
	for _, bc := range []struct {
		name    string
		layered bool
	}{
		{"layered", true},
		{"frozen-only", false},
	} {
		b.Run(bc.name, func(b *testing.B) {
			s, qs := benchIndex(b, 4096, bc.layered, nil)
			st := s.Stats()
			b.ReportMetric(float64(st.Segments), "segments")
			b.ReportMetric(float64(st.Memtable), "memtable")
			m := bitvec.BraunBlanquetMeasure
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				queryBest(s, qs[i%len(qs)], m)
			}
		})
	}
	// first-loop vs batch-first: 50 Figure 1 queries in mode first over
	// one bulk-loaded segment, one Search per query against one Search
	// for the batch. The batch costs about three times the loop.
	const n, alpha = 2000, 2.0 / 3
	d := dist.MustProduct(dist.Fig1Profile(600, 0.25))
	w, err := datagen.NewCorrelatedWorkload(d, n, 50, alpha, 13)
	if err != nil {
		b.Fatal(err)
	}
	s, err := BulkLoad(Config{Params: correlatedParams(d, n, alpha, 4, 1), N: n}, w.Data)
	if err != nil {
		b.Fatal(err)
	}
	sess := make([]*verify.Session, len(w.Queries))
	ths := make([]float64, len(w.Queries))
	for k, q := range w.Queries {
		sess[k], ths[k] = verify.Acquire(bitvec.BraunBlanquetMeasure, q), alpha/1.3
	}
	p := NewPlan(s.eng)
	p.Reset(w.Queries...)
	s.Search(nil, p, Request{Sessions: sess, Thresholds: ths, Mode: ModeFirst}) // grows the plan's arenas to the batch
	b.Run("first-loop", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for k, q := range w.Queries {
				p.Reset(q)
				s.Search(nil, p, Request{Sessions: sess[k : k+1], Thresholds: ths[k : k+1], Mode: ModeFirst})
			}
		}
	})
	b.Run("batch-first", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			p.Reset(w.Queries...)
			s.Search(nil, p, Request{Sessions: sess, Thresholds: ths, Mode: ModeFirst})
		}
	})
}

// BenchmarkQueryPathInstrumented measures what the observability layer
// adds to the query hot path: the identical layered QueryBest workload
// on ONE index, toggling its metrics sink between interleaved timed
// pairs. One index (not a bare and an instrumented twin) because
// allocation placement alone swings same-shaped indexes by double
// digits; interleaved (not back-to-back sub-benchmarks) because runs
// drift ~10% on shared runners — either effect would swamp the few
// atomic adds under test. The per-side timings surface as the
// bare-ns/op and instr-ns/op custom metrics; benchguard's -within gate
// holds instr within 5% of bare inside the one record, keeping the
// bound meaningful on any machine. The pair's order alternates each
// iteration (the second run of the same query hits warm cache, and a
// fixed order hands that ~35% discount entirely to one side), and each
// side reports its p75 rather than its mean — a single GC pause or
// scheduler preemption landing on one side shifts that side's sum by
// hundreds of ns/op, while a matching quantile of per-query samples
// shrugs off fat-tail outliers. p75 specifically because the sample
// distribution is bimodal: the warm-cache repeats cluster near 1µs
// where a fixed ~50ns sink cost reads as 5% all by itself, while p75
// sits in the cold-traversal mode — the realistic serving case, since
// production queries are distinct rather than back-to-back repeats.
// Toggling cfg.Metrics mid-run is
// safe here: the worker is idle (no inserts, so no freeze reads it)
// and queries run on this goroutine. The index is serving-sized (16k
// vectors): the sink's cost is a fixed ~70ns per query, so the ratio
// the gate bounds is only meaningful against a realistic traversal,
// not a toy index whose warm-cache queries run in under a microsecond.
func BenchmarkQueryPathInstrumented(b *testing.B) {
	s, qs := benchIndex(b, 16384, true, nil)
	met := NewMetrics(obs.NewRegistry())
	m := bitvec.BraunBlanquetMeasure
	// An odd-length query cycle, or the period-2 order alternation
	// locks onto query-index parity and each side's cold samples come
	// from disjoint query subsets — per-query cost spread then reads as
	// fake overhead (±8% observed).
	if len(qs)%2 == 0 {
		qs = qs[:len(qs)-1]
	}
	bareNs := make([]int64, 0, b.N)
	insNs := make([]int64, 0, b.N)
	run := func(metrics *Metrics, q bitvec.Vector) int64 {
		s.cfg.Metrics = metrics
		t0 := time.Now()
		queryBest(s, q, m)
		return int64(time.Since(t0))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := qs[i%len(qs)]
		if i%2 == 0 {
			bareNs = append(bareNs, run(nil, q))
			insNs = append(insNs, run(met, q))
		} else {
			insNs = append(insNs, run(met, q))
			bareNs = append(bareNs, run(nil, q))
		}
	}
	b.StopTimer()
	slices.Sort(bareNs)
	slices.Sort(insNs)
	b.ReportMetric(float64(bareNs[3*len(bareNs)/4]), "bare-ns/op")
	b.ReportMetric(float64(insNs[3*len(insNs)/4]), "instr-ns/op")
}

// BenchmarkSegmentedInsert measures online insert cost (filter
// generation plus memtable append; freeze amortizes in the background
// worker).
func BenchmarkSegmentedInsert(b *testing.B) {
	d, err := dist.NewProduct(dist.Zipf(256, 0.5, 1.0))
	if err != nil {
		b.Fatal(err)
	}
	s, err := New(Config{Params: testParams(d, 4096, 4, 9), N: 4096, MemtableSize: 1024, MaxSegments: 8})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(s.Close)
	rng := hashing.NewSplitMix64(23)
	vs := d.SampleN(rng, 4096)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Insert(vs[i%len(vs)]); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	s.WaitIdle()
}

// BenchmarkSegmentedFreeze measures freezing one full memtable (1024
// vectors, 4 repetitions) into a frozen segment: the per-repetition
// CSR build plus the segment's bloom filter. The memtable is filled
// once and frozen every iteration — freezing leaves it untouched, as it
// must for the queries that keep reading it while it flushes.
func BenchmarkSegmentedFreeze(b *testing.B) {
	d, err := dist.NewProduct(dist.Zipf(256, 0.5, 1.0))
	if err != nil {
		b.Fatal(err)
	}
	s, err := New(Config{Params: testParams(d, 4096, 4, 9), N: 4096, MemtableSize: 1 << 20})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(s.Close)
	rng := hashing.NewSplitMix64(29)
	for _, v := range d.SampleN(rng, 1024) {
		if _, err := s.Insert(v); err != nil {
			b.Fatal(err)
		}
	}
	s.mu.Lock()
	mt := s.mem
	s.rotateLocked()
	s.flushing = nil // frozen below, by hand, not by the worker
	s.mu.Unlock()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if seg := s.buildSegment(mt); seg == nil || seg.size() != 1024 {
			b.Fatal("freeze lost the memtable")
		}
	}
}

// checkpointSegment builds the checkpoint benchmark's segment: 1 024
// vectors of the end-to-end benchmark's sparse profile, Zipf(2000, 0.5,
// 0.6), under its daemon's correlated parameters (6 repetitions), frozen
// into one segment. It returns the index, the segment and the dump
// writeSegFile takes.
func checkpointSegment(tb testing.TB) (*SegmentedIndex, *frozenSeg, segDump) {
	tb.Helper()
	d, err := dist.NewProduct(dist.Zipf(2000, 0.5, 0.6))
	if err != nil {
		tb.Fatal(err)
	}
	s, err := New(Config{Params: correlatedParams(d, 5000, 0.6667, 6, 1), N: 5000, MemtableSize: 1 << 20})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(s.Close)
	for _, v := range d.SampleN(hashing.NewSplitMix64(31), 1024) {
		if _, err := s.Insert(v); err != nil {
			tb.Fatal(err)
		}
	}
	s.Flush()
	s.WaitIdle()
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.segs) != 1 || s.segs[0].size() != 1024 {
		tb.Fatalf("want one frozen segment of 1024 vectors, have %d segments", len(s.segs))
	}
	return s, s.segs[0], s.gatherSegLocked(s.segs[0], slices.Clone(s.deadExt))
}

// BenchmarkSegmentedCheckpoint measures persisting one frozen segment
// as an SKSEG1 file — stream, fsync, rename, directory fsync — in both
// posting encodings. B/op is the checkpoint's heap cost; fileMiB is
// the file it writes.
func BenchmarkSegmentedCheckpoint(b *testing.B) {
	_, seg, dump := checkpointSegment(b)
	for _, compress := range []bool{false, true} {
		name := "plain"
		if compress {
			name = "compressed"
		}
		b.Run(name, func(b *testing.B) {
			dir := b.TempDir()
			var size int64
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var err error
				if _, size, err = writeSegFile(dir, 1, dump, seg.reps, seg.bloom, compress, func(string) {}); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(size)/(1<<20), "fileMiB")
		})
	}
}

// correlatedParams are §6's correlated engine parameters at α: core's
// correlated thresholds, restated like schemeParams.
func correlatedParams(d *dist.Product, n int, alpha float64, reps int, seed uint64) []lsf.Params {
	clogn, phat := d.ExpectedSize(), d.ConditionalProbs(alpha)
	delta := 0.0
	if c := d.C(n); c > 0 {
		delta = 3 / math.Sqrt(alpha*c)
	}
	return schemeParams(d, n, reps, seed, func(_ bitvec.Vector, j int, i uint32) float64 {
		ph := alpha
		if int(i) < len(phat) {
			ph = phat[i]
		}
		if denom := ph*clogn - float64(j); denom > 1+delta {
			return (1 + delta) / denom
		}
		return 1
	})
}
