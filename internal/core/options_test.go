package core

import (
	"testing"

	"skewsim/internal/bitvec"
	"skewsim/internal/dist"
	"skewsim/internal/lsf"
)

func TestCustomWeigherWiredThrough(t *testing.T) {
	// A weigher that makes everything maximally rare: every path becomes
	// a single-element filter, so total filters ≈ reps · Σ|x| · s·... —
	// at minimum, the filter count must differ from the default build.
	d := dist.MustProduct(dist.Uniform(400, 0.25))
	w, _ := NewTestCorrelatedWorkload(d, 100, 5, 0.7, 43)

	def, err := BuildCorrelated(d, w.Data, 0.7, Options{Seed: 1, Repetitions: 2})
	if err != nil {
		t.Fatal(err)
	}
	cw, err := lsf.NewClusterWeigher(d.Probs(), allOneCluster(d.Dim()), 0.9999)
	if err != nil {
		t.Fatal(err)
	}
	// With one giant cluster almost no path ever completes, so cap the
	// search aggressively; the point is only that the weigher changes
	// the build.
	clustered, err := BuildCorrelated(d, w.Data, 0.7, Options{
		Seed: 1, Repetitions: 2, Weigher: cw, MaxDepth: 4, MaxFiltersPerVector: 500,
	})
	if err != nil {
		t.Fatal(err)
	}
	filters := func(ix *Index) (n int) {
		for _, q := range w.Queries {
			n += ix.QueryBest(q).Stats.Filters
		}
		return n
	}
	if filters(def) == filters(clustered) {
		t.Error("custom weigher had no effect on filter generation")
	}
}

func allOneCluster(dim int) []int32 {
	c := make([]int32, dim)
	return c // all zeros: one big cluster
}

func TestAlternativeVerificationMeasure(t *testing.T) {
	// DESIGN D5: the engine supports measures beyond Braun-Blanquet. With
	// Jaccard verification the planted pair (α = 0.8, J ≈ 0.7) still
	// clears the α/1.3 bar and is recovered.
	d := dist.MustProduct(dist.Uniform(1000, 0.1))
	w, err := NewTestCorrelatedWorkload(d, 250, 25, 0.8, 59)
	if err != nil {
		t.Fatal(err)
	}
	ix, err := BuildCorrelated(d, w.Data, 0.8, Options{
		Seed: 5, Measure: bitvec.JaccardMeasure,
	})
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
		t.Errorf("Jaccard-verified recall %v", rate)
	}
}
