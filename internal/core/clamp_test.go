package core

import (
	"slices"
	"testing"

	"skewsim/internal/bitvec"
	"skewsim/internal/dist"
	"skewsim/internal/hashing"
)

// TestParallelWorkerClamp: a tiny batch through QueryParallel with an
// absurd worker bound must match Query in a loop exactly (the clamp in
// lsf.ForEachParallel keeps the pool at len(qs), so no idle goroutines
// and no reordering).
func TestParallelWorkerClamp(t *testing.T) {
	d, err := dist.NewProduct(dist.Zipf(64, 0.5, 1.0))
	if err != nil {
		t.Fatal(err)
	}
	rng := hashing.NewSplitMix64(13)
	data := d.SampleN(rng, 200)
	ix, err := BuildAdversarial(d, data, 0.5, Options{Seed: 3, Repetitions: 3})
	if err != nil {
		t.Fatal(err)
	}
	qs := d.SampleN(rng, 2) // far fewer queries than workers

	serial := make([]Result, len(qs))
	for k, q := range qs {
		serial[k] = ix.Query(q)
	}
	parallel := ix.QueryParallel(qs, 512)
	if !slices.Equal(serial, parallel) {
		t.Fatalf("QueryParallel(workers=512) diverged on %d queries", len(qs))
	}

	var none []bitvec.Vector
	if out := ix.QueryParallel(none, 512); len(out) != 0 {
		t.Fatalf("QueryParallel on empty batch returned %d results", len(out))
	}
}
