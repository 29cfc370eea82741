// Benchmark harness: one benchmark per paper artifact (figures, tables,
// worked examples) plus micro-benchmarks for the core operations and
// ablation benchmarks for the design decisions called out in DESIGN.md
// (D1 stopping rule, D2 conditional weighting).
//
// The per-artifact benchmarks run the same code as cmd/experiments with
// reduced configurations so `go test -bench=.` finishes in minutes; the
// rendered tables land in io.Discard — run cmd/experiments to see them.
package skewsim_test

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"runtime"
	"testing"

	"skewsim/internal/bitvec"
	"skewsim/internal/bruteforce"
	"skewsim/internal/chosenpath"
	"skewsim/internal/core"
	"skewsim/internal/datagen"
	"skewsim/internal/dist"
	"skewsim/internal/experiments"
	"skewsim/internal/hashing"
	"skewsim/internal/lsf"
	"skewsim/internal/prefix"
	"skewsim/internal/segment"
	"skewsim/internal/verify"
)

// --- paper artifacts -------------------------------------------------------

func BenchmarkFig1(b *testing.B) {
	cfg := experiments.DefaultFig1Config()
	for i := 0; i < b.N; i++ {
		t, err := experiments.Fig1(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if err := t.Render(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig2(b *testing.B) {
	cfg := experiments.DefaultFig2Config()
	for i := 0; i < b.N; i++ {
		t, err := experiments.Fig2(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if err := t.Render(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable1(b *testing.B) {
	cfg := experiments.Table1Config{N: 500, Samples: 100, Seed: 1}
	for i := 0; i < b.N; i++ {
		t, err := experiments.Table1(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if err := t.Render(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSec7Adv(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := experiments.Sec7Adv()
		if err != nil {
			b.Fatal(err)
		}
		if err := t.Render(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSec7Corr(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := experiments.Sec7Corr()
		if err != nil {
			b.Fatal(err)
		}
		if err := t.Render(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMotivating(b *testing.B) {
	cfg := experiments.DefaultMotivatingConfig()
	for i := 0; i < b.N; i++ {
		t, err := experiments.Motivating(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if err := t.Render(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkScaling(b *testing.B) {
	cfg := experiments.ScalingConfig{
		Ns:          []int{300, 600, 1200},
		B1:          1.0 / 3,
		C:           15,
		PA:          0.25,
		RareExp:     0.9,
		Queries:     10,
		Repetitions: 4,
		Seed:        7,
	}
	for i := 0; i < b.N; i++ {
		t, err := experiments.Scaling(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if err := t.Render(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRecall(b *testing.B) {
	cfg := experiments.RecallConfig{
		N: 300, Queries: 20, C: 25,
		Alphas: []float64{2.0 / 3}, Seed: 9,
	}
	for i := 0; i < b.N; i++ {
		t, err := experiments.Recall(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if err := t.Render(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// --- micro-benchmarks ------------------------------------------------------

// benchWorkload builds a standard correlated workload once per benchmark.
func benchWorkload(b *testing.B, n int) (*dist.Product, *datagen.CorrelatedWorkload) {
	b.Helper()
	d := dist.MustProduct(dist.Fig1Profile(600, 0.25))
	w, err := datagen.NewCorrelatedWorkload(d, n, 50, 2.0/3, 13)
	if err != nil {
		b.Fatal(err)
	}
	return d, w
}

// BenchmarkBuildSkewSearch builds the dense-best shard's index (1 000
// Fig. 1 vectors, 4 repetitions) and reports B/bucket: the resident
// arena bytes of one repetition's frozen index per bucket, the static
// bytes-per-bucket figure the memory layout is tracked by.
func BenchmarkBuildSkewSearch(b *testing.B) {
	d, w := benchWorkload(b, 1000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.BuildCorrelated(d, w.Data, 2.0/3, core.Options{Seed: uint64(i), Repetitions: 4}); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	params, err := core.EngineParams(core.Correlated, d, len(w.Data), 2.0/3, core.Options{Seed: 1, Repetitions: 4})
	if err != nil {
		b.Fatal(err)
	}
	eng, err := lsf.NewEngine(len(w.Data), params[0])
	if err != nil {
		b.Fatal(err)
	}
	ix, err := lsf.BuildIndex(eng, w.Data)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(ix.ResidentBytes())/float64(ix.Stats().Buckets), "B/bucket")
}

func BenchmarkBuildChosenPath(b *testing.B) {
	d, w := benchWorkload(b, 1000)
	b2 := d.ExpectedBraunBlanquet()
	b1 := d.ExpectedCorrelatedBraunBlanquet(2.0 / 3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := chosenpath.Build(w.Data, b1*0.85, b2, chosenpath.Options{Seed: uint64(i), Repetitions: 4}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkQuerySkewSearch(b *testing.B) {
	d, w := benchWorkload(b, 1000)
	ix, err := core.BuildCorrelated(d, w.Data, 2.0/3, core.Options{Seed: 1, Repetitions: 4})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ix.Query(w.Queries[i%len(w.Queries)])
	}
}

func BenchmarkQueryChosenPath(b *testing.B) {
	d, w := benchWorkload(b, 1000)
	b2 := d.ExpectedBraunBlanquet()
	b1 := d.ExpectedCorrelatedBraunBlanquet(2.0 / 3)
	ix, err := chosenpath.Build(w.Data, b1*0.85, b2, chosenpath.Options{Seed: 1, Repetitions: 4})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ix.Query(w.Queries[i%len(w.Queries)])
	}
}

func BenchmarkQueryPrefixFilter(b *testing.B) {
	d, w := benchWorkload(b, 1000)
	ix, err := prefix.Build(w.Data, d.Probs(), 0.5, prefix.Options{})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ix.QueryBest(w.Queries[i%len(w.Queries)])
	}
}

func BenchmarkQueryBruteForce(b *testing.B) {
	_, w := benchWorkload(b, 1000)
	ix, err := bruteforce.Build(w.Data, bruteforce.Options{})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ix.QueryBest(w.Queries[i%len(w.Queries)])
	}
}

func BenchmarkSampleProduct(b *testing.B) {
	d := dist.MustProduct(dist.TwoBlock(400, 0.25, 100000, 0.001))
	rng := hashing.NewSplitMix64(3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.Sample(rng)
	}
}

func BenchmarkSampleCorrelated(b *testing.B) {
	d := dist.MustProduct(dist.TwoBlock(400, 0.25, 100000, 0.001))
	rng := hashing.NewSplitMix64(3)
	x := d.Sample(rng)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.SampleCorrelated(rng, x, 2.0/3)
	}
}

func BenchmarkIntersectionSize(b *testing.B) {
	d := dist.MustProduct(dist.Uniform(4000, 0.05))
	rng := hashing.NewSplitMix64(5)
	x := d.Sample(rng)
	y := d.Sample(rng)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x.IntersectionSize(y)
	}
}

// --- ablations (DESIGN.md D1, D2) -----------------------------------------

// ablationEngines builds two engines sharing the correlated thresholds
// but differing in the stopping rule: the paper's product rule vs a
// Chosen-Path-style fixed depth.
func ablationEngines(b *testing.B, d *dist.Product, n int, alpha float64, seed uint64) (productRule, fixedDepth *lsf.Engine) {
	b.Helper()
	clogn := d.ExpectedSize()
	c := d.C(n)
	delta := 3 / math.Sqrt(alpha*c)
	phat := d.ConditionalProbs(alpha)
	threshold := func(_ bitvec.Vector, j int, i uint32) float64 {
		ph := alpha
		if int(i) < len(phat) {
			ph = phat[i]
		}
		denom := ph*clogn - float64(j)
		if denom <= 1+delta {
			return 1
		}
		return (1 + delta) / denom
	}
	b2 := d.ExpectedBraunBlanquet()
	k := chosenpath.PathLength(n, b2)
	mk := func(stop lsf.StopRule, depth int) *lsf.Engine {
		e, err := lsf.NewEngine(n, lsf.Params{
			Seed: seed, Probs: d.Probs(), Threshold: threshold, Stop: stop, MaxDepth: depth,
		})
		if err != nil {
			b.Fatal(err)
		}
		return e
	}
	return mk(lsf.ProductStopRule(n), 0), mk(lsf.FixedDepthStopRule(k), k+1)
}

// BenchmarkAblationStoppingRule (D1): the paper's per-branch stopping
// rule against a fixed depth, measuring index filter volume (reported as
// filters/op) — the rule is what keeps rare-element branches short.
func BenchmarkAblationStoppingRule(b *testing.B) {
	const n, alpha = 800, 2.0 / 3
	d := dist.MustProduct(dist.Fig1Profile(500, 0.25))
	w, err := datagen.NewCorrelatedWorkload(d, n, 1, alpha, 17)
	if err != nil {
		b.Fatal(err)
	}
	for _, variant := range []struct {
		name  string
		fixed bool
	}{{"product-rule", false}, {"fixed-depth", true}} {
		b.Run(variant.name, func(b *testing.B) {
			total := 0
			for i := 0; i < b.N; i++ {
				prodE, fixE := ablationEngines(b, d, n, alpha, uint64(i))
				e := prodE
				if variant.fixed {
					e = fixE
				}
				ix, err := lsf.BuildIndex(e, w.Data[:200])
				if err != nil {
					b.Fatal(err)
				}
				total += ix.Stats().TotalFilters
			}
			b.ReportMetric(float64(total)/float64(b.N), "filters/op")
		})
	}
}

// BenchmarkAblationConditionalWeighting (D2): correlated workloads
// answered by the correlated thresholds (p̂-weighted) vs the adversarial
// thresholds (uniform 1/(b1|x|−j)); reports candidates/op.
func BenchmarkAblationConditionalWeighting(b *testing.B) {
	const n, alpha = 800, 2.0 / 3
	d := dist.MustProduct(dist.Fig1Profile(500, 0.25))
	w, err := datagen.NewCorrelatedWorkload(d, n, 20, alpha, 19)
	if err != nil {
		b.Fatal(err)
	}
	build := func(seed uint64, correlated bool) *core.Index {
		var ix *core.Index
		var err error
		if correlated {
			ix, err = core.BuildCorrelated(d, w.Data, alpha, core.Options{Seed: seed, Repetitions: 4})
		} else {
			ix, err = core.BuildAdversarial(d, w.Data, alpha/1.3, core.Options{Seed: seed, Repetitions: 4})
		}
		if err != nil {
			b.Fatal(err)
		}
		return ix
	}
	for _, variant := range []struct {
		name       string
		correlated bool
	}{{"phat-weighted", true}, {"uniform-thresholds", false}} {
		b.Run(variant.name, func(b *testing.B) {
			candidates, hits := 0, 0
			for i := 0; i < b.N; i++ {
				ix := build(uint64(i), variant.correlated)
				for k, q := range w.Queries {
					res := ix.Query(q)
					candidates += res.Stats.Candidates
					if res.Found && res.ID == w.Targets[k] {
						hits++
					}
				}
			}
			b.ReportMetric(float64(candidates)/float64(b.N*len(w.Queries)), "candidates/query")
			b.ReportMetric(float64(hits)/float64(b.N*len(w.Queries)), "recall")
		})
	}
}

// --- query pipeline (dedup refactor, batching, parallel queries) -----------

// BenchmarkQueryPath times the query entry points on the Fig1 workload.
// Every op processes the full query set, so ns/op and allocs/op are
// directly comparable between variants: core's single-query entry
// points in a loop, one mode-best segment.Search over the whole set
// (batch-best: each repetition's filter sets are planned once for the
// batch), and core's query loop fanned out over workers.
func BenchmarkQueryPath(b *testing.B) {
	d, w := benchWorkload(b, 2000)
	opt := core.Options{Seed: 1, Repetitions: 4}
	ix, err := core.BuildCorrelated(d, w.Data, 2.0/3, opt)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("single-loop", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, q := range w.Queries {
				ix.Query(q)
			}
		}
	})
	b.Run("best-loop", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, q := range w.Queries {
				ix.QueryBest(q)
			}
		}
	})
	params, err := core.EngineParams(core.Correlated, d, len(w.Data), 2.0/3, opt)
	if err != nil {
		b.Fatal(err)
	}
	cfg := segment.Config{Params: params, N: len(w.Data)}
	if cfg.Engines, err = segment.NewEngines(cfg); err != nil {
		b.Fatal(err)
	}
	seg, err := segment.BulkLoad(cfg, w.Data)
	if err != nil {
		b.Fatal(err)
	}
	p := segment.NewPlan(cfg.Engines)
	sess := make([]*verify.Session, len(w.Queries))
	searchBatch := func() {
		for k, q := range w.Queries {
			sess[k] = verify.Acquire(bitvec.BraunBlanquetMeasure, q)
		}
		p.Reset(w.Queries...)
		seg.Search(nil, p, segment.Request{Sessions: sess, Mode: segment.ModeBest})
		for _, ses := range sess {
			verify.Release(ses)
		}
	}
	searchBatch() // grows the plan's arenas to the batch
	b.Run("batch-best", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			searchBatch()
		}
	})
	for _, workers := range []int{2, 4, runtime.GOMAXPROCS(0)} {
		b.Run(fmt.Sprintf("parallel-%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				ix.QueryParallel(w.Queries, workers)
			}
		})
	}
}

// BenchmarkLSFTraversal isolates one lsf repetition's candidate walk (the
// layer the refactor rewrote): exhaustive traversal via CandidateIDs and
// early-exit traversal via Query.
func BenchmarkLSFTraversal(b *testing.B) {
	const n = 2000
	d, w := benchWorkload(b, n)
	clogn := d.ExpectedSize()
	phat := d.ConditionalProbs(2.0 / 3)
	engine, err := lsf.NewEngine(n, lsf.Params{
		Seed:  5,
		Probs: d.Probs(),
		Threshold: func(_ bitvec.Vector, j int, i uint32) float64 {
			ph := 2.0 / 3
			if int(i) < len(phat) {
				ph = phat[i]
			}
			denom := ph*clogn - float64(j)
			if denom <= 1 {
				return 1
			}
			return 1 / denom
		},
		Stop: lsf.ProductStopRule(n),
	})
	if err != nil {
		b.Fatal(err)
	}
	ix, err := lsf.BuildIndex(engine, w.Data)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("candidate-ids", func(b *testing.B) {
		b.ReportAllocs()
		// The appending form with a reused buffer is the steady-state
		// shape of the candidate pipeline: 0 allocs/op once the arenas,
		// pools, and the result buffer have warmed up.
		var buf []int32
		for i := 0; i < b.N; i++ {
			buf, _ = ix.AppendCandidateIDs(buf[:0], w.Queries[i%len(w.Queries)])
		}
	})
	b.Run("candidate-ids-fresh", func(b *testing.B) {
		b.ReportAllocs()
		// The allocating entry point (a fresh result slice per call),
		// kept measured so regressions in CandidateIDs itself — still
		// the public API used by chosenpath and the experiments — are
		// not hidden by the appending benchmark above.
		for i := 0; i < b.N; i++ {
			ix.CandidateIDs(w.Queries[i%len(w.Queries)])
		}
	})
	b.Run("query-early-exit", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			ix.Query(w.Queries[i%len(w.Queries)], 0.5, bitvec.BraunBlanquetMeasure)
		}
	})
}

// --- extension subsystems ---------------------------------------------------

// BenchmarkSerializeIndex times a snapshot of a bulk-loaded index —
// its one frozen segment as an SKSEG1 container, plain postings — and
// its restore (write, read). bytes is the snapshot's size.
func BenchmarkSerializeIndex(b *testing.B) {
	d, w := benchWorkload(b, 1000)
	params, err := core.EngineParams(core.Correlated, d, len(w.Data), 2.0/3, core.Options{Seed: 1, Repetitions: 4})
	if err != nil {
		b.Fatal(err)
	}
	cfg := segment.Config{Params: params, N: len(w.Data)}
	ix, err := segment.BulkLoad(cfg, w.Data)
	if err != nil {
		b.Fatal(err)
	}
	var snap bytes.Buffer
	if _, err := ix.WriteSnapshot(&snap); err != nil {
		b.Fatal(err)
	}
	b.Run("write", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := ix.WriteSnapshot(io.Discard); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(snap.Len()), "bytes")
	})
	b.Run("read", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			back, err := segment.ReadSnapshot(bytes.NewReader(snap.Bytes()), cfg)
			if err != nil {
				b.Fatal(err)
			}
			back.Close()
		}
		b.ReportMetric(float64(snap.Len()), "bytes")
	})
}

func BenchmarkClusterWeigher(b *testing.B) {
	probs := make([]float64, 800)
	cluster := make([]int32, 800)
	for j := 0; j < 100; j++ {
		for k := 0; k < 8; k++ {
			probs[j*8+k] = 0.02
			cluster[j*8+k] = int32(j)
		}
	}
	cw, err := lsf.NewClusterWeigher(probs, cluster, 0.999)
	if err != nil {
		b.Fatal(err)
	}
	path := []uint32{0, 1, 8, 16}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cw.LogInvP(path, uint32(i%800))
	}
}
