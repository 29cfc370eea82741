package core

import (
	"math"
	"slices"
	"strings"
	"testing"

	"skewsim/internal/bitvec"
	"skewsim/internal/datagen"
	"skewsim/internal/dist"
	"skewsim/internal/hashing"
	"skewsim/internal/lsf"
)

func TestChosenPathLength(t *testing.T) {
	// k = ceil(ln n / ln(1/b2)).
	if got := PathLength(1000, 0.1); got != 3 {
		t.Errorf("PathLength(1000, 0.1) = %d, want 3", got)
	}
	if got := PathLength(1, 0.5); got != 1 {
		t.Errorf("tiny n should give 1, got %d", got)
	}
	if got := PathLength(1024, 0.5); got != 10 {
		t.Errorf("PathLength(1024, 0.5) = %d, want 10", got)
	}
}

func TestChosenPathBuildValidation(t *testing.T) {
	data := []bitvec.Vector{bitvec.New(1)}
	if _, err := BuildChosenPath(nil, 0.5, 0.1, Options{}); err == nil {
		t.Error("empty data should fail")
	}
	for _, c := range [][2]float64{{0.5, 0.5}, {0.1, 0.5}, {0, 0.1}, {1.5, 0.5}, {0.5, 0}} {
		if _, err := BuildChosenPath(data, c[0], c[1], Options{}); err == nil {
			t.Errorf("b1=%v b2=%v should fail", c[0], c[1])
		}
	}
	if _, err := BuildChosenPath(data, 0.5, 0.25, Options{Repetitions: -2}); err == nil {
		t.Error("negative repetitions should fail")
	}
	d := dist.MustProduct(dist.Uniform(10, 0.1))
	if _, err := EngineParams(FixedDepth, d, 10, 0.5, Options{}); err == nil {
		t.Error("EngineParams should refuse FixedDepth")
	}
}

func TestChosenPathAccessors(t *testing.T) {
	d := dist.MustProduct(dist.Uniform(400, 0.1))
	w, _ := datagen.NewCorrelatedWorkload(d, 100, 1, 0.8, 1)
	ix, err := BuildChosenPath(w.Data, 0.6, 0.15, Options{Seed: 1, Repetitions: 4})
	if err != nil {
		t.Fatal(err)
	}
	if ix.Mode() != FixedDepth || ix.Threshold() != 0.6 {
		t.Errorf("mode %v threshold %v, want fixed-depth at b1 = 0.6", ix.Mode(), ix.Threshold())
	}
	if ix.Repetitions() != 4 || len(ix.Data()) != 100 {
		t.Error("accessors wrong")
	}
	if res := ix.QueryBest(w.Data[0]); res.Stats.Filters <= 0 {
		t.Errorf("a data vector has no filters: %+v", res.Stats)
	}
	if _, err := ix.PredictedQueryRho(w.Queries[0]); err == nil || !strings.Contains(err.Error(), "fixed-depth") {
		t.Errorf("PredictedQueryRho in FixedDepth mode: err = %v, want one naming the mode", err)
	}
}

func TestChosenPathRecallOnCorrelatedWorkload(t *testing.T) {
	// Chosen Path solving the correlated instance via the (b1, b2)
	// reduction of §7.2: b2 = expected far similarity, b1 = expected
	// planted similarity. Recall must be high (it is a correct worst-case
	// structure — just slower than SkewSearch under skew).
	const (
		n     = 400
		alpha = 0.8
		p     = 0.1
	)
	d := dist.MustProduct(dist.Uniform(1200, p))
	w, err := datagen.NewCorrelatedWorkload(d, n, 40, alpha, 3)
	if err != nil {
		t.Fatal(err)
	}
	b2 := d.ExpectedBraunBlanquet()
	b1 := d.ExpectedCorrelatedBraunBlanquet(alpha)
	// Verify against a slightly relaxed threshold to absorb sampling
	// noise in the planted similarity.
	ix, err := BuildChosenPath(w.Data, b1*0.85, b2, Options{Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	recovered := 0
	for k, q := range w.Queries {
		res := ix.Query(q)
		if res.Found && res.ID == w.Targets[k] {
			recovered++
		}
	}
	if rate := float64(recovered) / float64(len(w.Queries)); rate < 0.85 {
		t.Errorf("recall %v, want ≥ 0.85", rate)
	}
}

func TestChosenPathFilterCountMatchesExponent(t *testing.T) {
	// E[|F(x)|] per repetition ≈ (1/b1)^k = n^{ln(1/b1)/ln(1/b2)}. A data
	// vector queried against the index meets exactly its own filters.
	const n, reps = 300, 8
	b1, b2 := 0.5, 0.1
	d := dist.MustProduct(dist.Uniform(900, 0.1))
	w, _ := datagen.NewCorrelatedWorkload(d, n, 1, 0.8, 5)
	ix, err := BuildChosenPath(w.Data, b1, b2, Options{Seed: 2, Repetitions: reps})
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, x := range w.Data {
		total += ix.QueryBest(x).Stats.Filters
	}
	perVector := float64(total) / float64(reps*n)
	want := math.Pow(1/b1, float64(PathLength(n, b2)))
	if perVector > want*2.5 || perVector < want*0.2 {
		t.Errorf("filters per vector %v, want ≈ %v", perVector, want)
	}
}

func TestChosenPathQueryDeterministic(t *testing.T) {
	d := dist.MustProduct(dist.Uniform(500, 0.1))
	w, _ := datagen.NewCorrelatedWorkload(d, 150, 10, 0.8, 7)
	ix1, _ := BuildChosenPath(w.Data, 0.5, 0.12, Options{Seed: 9, Repetitions: 3})
	ix2, _ := BuildChosenPath(w.Data, 0.5, 0.12, Options{Seed: 9, Repetitions: 3})
	for _, q := range w.Queries {
		r1, r2 := ix1.Query(q), ix2.Query(q)
		if r1 != r2 {
			t.Fatalf("same seed produced different results: %+v, %+v", r1, r2)
		}
	}
}

func TestChosenPathQueryEmptyAndDisjoint(t *testing.T) {
	d := dist.MustProduct(dist.Uniform(300, 0.1))
	w, _ := datagen.NewCorrelatedWorkload(d, 80, 1, 0.8, 13)
	ix, err := BuildChosenPath(w.Data, 0.5, 0.12, Options{Seed: 1, Repetitions: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res := ix.Query(bitvec.New()); res.Found {
		t.Error("empty query found something")
	}
	if res := ix.Query(bitvec.New(9000, 9001, 9002)); res.Found {
		t.Error("disjoint query found something")
	}
}

func TestChosenPathQueryBestAndCandidates(t *testing.T) {
	d := dist.MustProduct(dist.Uniform(600, 0.1))
	w, _ := datagen.NewCorrelatedWorkload(d, 200, 15, 0.8, 17)
	ix, err := BuildChosenPath(w.Data, 0.5, 0.12, Options{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range w.Data[:15] {
		// Self-query: the vector itself is a candidate whenever it has a
		// filter, and QueryBest must then return similarity 1.
		res := ix.QueryBest(q)
		ids := ix.Candidates(q)
		if res.Found && res.Similarity < 1-1e-9 {
			t.Errorf("self QueryBest sim %v with %d candidates", res.Similarity, len(ids))
		}
		// Candidates are distinct over all repetitions, the set whose
		// size QueryBest reports as Distinct.
		seen := map[int32]bool{}
		for _, id := range ids {
			if seen[id] {
				t.Fatal("duplicate candidate id")
			}
			seen[id] = true
		}
		if len(ids) != res.Stats.Distinct {
			t.Errorf("%d candidates, QueryBest verified %d distinct", len(ids), res.Stats.Distinct)
		}
	}
}

// chosenPathReference is Chosen Path as a standalone baseline builds it:
// one lsf index per repetition, with the scheme written out here rather
// than taken from BuildChosenPath — the constant threshold
// min(1, 1/(b1·|x|)), paths of exactly k = ⌈ln n / ln(1/b2)⌉ elements,
// repetition r seeded by the r-th draw of SplitMix64(seed), and
// ⌈log2 n⌉ + 1 repetitions.
func chosenPathReference(t *testing.T, data []bitvec.Vector, b1, b2 float64, seed uint64) []*lsf.Index {
	t.Helper()
	n := len(data)
	k := int(math.Ceil(math.Log(float64(n)) / math.Log(1/b2)))
	seeds := hashing.NewSplitMix64(seed)
	reps := make([]*lsf.Index, int(math.Ceil(math.Log2(float64(n))))+1)
	for r := range reps {
		e, err := lsf.NewEngine(n, lsf.Params{
			Seed: seeds.Next(),
			Threshold: func(x bitvec.Vector, _ int, _ uint32) float64 {
				if s := 1 / (b1 * float64(x.Len())); s < 1 {
					return s
				}
				return 1
			},
			Stop:     lsf.FixedDepthStopRule(k),
			MaxDepth: k + 1,
		})
		if err != nil {
			t.Fatal(err)
		}
		if reps[r], err = lsf.BuildIndex(e, data); err != nil {
			t.Fatal(err)
		}
	}
	return reps
}

// TestChosenPathMatchesPerRepetitionReference: Chosen Path through core's
// one search loop does the work of the per-repetition loop over lsf
// indexes. For every query, QueryBest's filter and candidate-occurrence
// counts are the reference's per-repetition sums, Candidates is the
// reference's distinct union in encounter order, QueryBest finds the
// union's best similarity and Query the union's first candidate at b1.
func TestChosenPathMatchesPerRepetitionReference(t *testing.T) {
	uniform := dist.MustProduct(dist.Uniform(1200, 0.1))
	corr, err := datagen.NewCorrelatedWorkload(uniform, 400, 30, 0.8, 3)
	if err != nil {
		t.Fatal(err)
	}
	// A §7.1-style two-block instance: half the mass at p = 1/4, half at
	// p = n^-0.9.
	twoBlock := dist.MustProduct(dist.TwoBlock(60, 0.25, 4000, math.Pow(500, -0.9)))
	adv, err := datagen.NewAdversarialWorkload(twoBlock, 500, 30, 1.0/3, 5)
	if err != nil {
		t.Fatal(err)
	}
	workloads := []struct {
		name    string
		data    []bitvec.Vector
		queries []bitvec.Vector
		b1, b2  float64
	}{
		{"uniform-correlated", corr.Data, corr.Queries, 0.85 * uniform.ExpectedCorrelatedBraunBlanquet(0.8), uniform.ExpectedBraunBlanquet()},
		{"two-block-adversarial", adv.Data, adv.Queries, 1.0 / 3, twoBlock.ExpectedBraunBlanquet()},
	}
	m := bitvec.BraunBlanquetMeasure
	for _, wl := range workloads {
		queries := append(slices.Clone(wl.queries), wl.data[:10]...)
		for _, seed := range []uint64{1, 2, 3} {
			ix, err := BuildChosenPath(wl.data, wl.b1, wl.b2, Options{Seed: seed})
			if err != nil {
				t.Fatal(err)
			}
			ref := chosenPathReference(t, wl.data, wl.b1, wl.b2, seed)
			if ix.Repetitions() != len(ref) {
				t.Fatalf("%s seed %d: %d repetitions, reference %d", wl.name, seed, ix.Repetitions(), len(ref))
			}
			sawCandidates := false
			for k, q := range queries {
				var filters, cands int
				var union []int32
				seen := map[int32]bool{}
				for _, rep := range ref {
					ids, st := rep.CandidateIDs(q)
					filters += st.Filters
					cands += st.Candidates
					for _, id := range ids {
						if !seen[id] {
							seen[id] = true
							union = append(union, id)
						}
					}
				}
				sawCandidates = sawCandidates || len(union) > 0
				best := ix.QueryBest(q)
				if best.Stats.Filters != filters || best.Stats.Candidates != cands {
					t.Fatalf("%s seed %d query %d: QueryBest did %d filters, %d candidates; reference %d, %d",
						wl.name, seed, k, best.Stats.Filters, best.Stats.Candidates, filters, cands)
				}
				if got := ix.Candidates(q); !slices.Equal(got, union) {
					t.Fatalf("%s seed %d query %d: Candidates %v, reference union %v", wl.name, seed, k, got, union)
				}
				wantBest, wantFirst := -1.0, -1
				for _, id := range union {
					s := m.Similarity(q, wl.data[id])
					wantBest = max(wantBest, s)
					if wantFirst < 0 && s >= wl.b1 {
						wantFirst = int(id)
					}
				}
				if best.Found != (len(union) > 0) || best.Found && best.Similarity != wantBest {
					t.Fatalf("%s seed %d query %d: QueryBest %+v, reference best %v over %d candidates",
						wl.name, seed, k, best, wantBest, len(union))
				}
				if first := ix.Query(q); first.ID != wantFirst {
					t.Fatalf("%s seed %d query %d: Query found %d, reference's first at b1 is %d",
						wl.name, seed, k, first.ID, wantFirst)
				}
			}
			if !sawCandidates {
				t.Fatalf("%s seed %d: no query met a candidate; the comparison is vacuous", wl.name, seed)
			}
		}
	}
}
