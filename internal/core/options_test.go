package core

import (
	"testing"

	"skewsim/internal/bitvec"
	"skewsim/internal/dist"
)

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
