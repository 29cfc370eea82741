package join

import (
	"testing"

	"skewsim/internal/bitvec"
	"skewsim/internal/bruteforce"
	"skewsim/internal/core"
	"skewsim/internal/datagen"
	"skewsim/internal/dist"
	"skewsim/internal/hashing"
	"skewsim/internal/prefix"
)

func TestRunValidation(t *testing.T) {
	if _, _, err := Run(nil, nil, 0.5, bitvec.BraunBlanquetMeasure); err == nil {
		t.Error("nil index should fail")
	}
	bf, _ := bruteforce.Build([]bitvec.Vector{bitvec.New(1)}, bruteforce.Options{})
	if _, _, err := Run(bf, nil, 1.5, bitvec.BraunBlanquetMeasure); err == nil {
		t.Error("bad threshold should fail")
	}
}

func TestRunExactWithBruteForce(t *testing.T) {
	s := []bitvec.Vector{
		bitvec.New(1, 2, 3),
		bitvec.New(4, 5, 6),
		bitvec.New(1, 2, 9),
	}
	r := []bitvec.Vector{
		bitvec.New(1, 2, 3), // matches s[0] (1.0) and s[2] (2/3)
		bitvec.New(7, 8),    // matches nothing
	}
	bf, err := bruteforce.Build(s, bruteforce.Options{})
	if err != nil {
		t.Fatal(err)
	}
	pairs, st, err := Run(bf, r, 0.6, bitvec.BraunBlanquetMeasure)
	if err != nil {
		t.Fatal(err)
	}
	if len(pairs) != 2 {
		t.Fatalf("pairs = %+v", pairs)
	}
	if pairs[0].RIdx != 0 || pairs[0].SIdx != 0 || pairs[0].Similarity != 1 {
		t.Errorf("pair[0] = %+v", pairs[0])
	}
	if pairs[1].RIdx != 0 || pairs[1].SIdx != 2 {
		t.Errorf("pair[1] = %+v", pairs[1])
	}
	if st.Queries != 2 || st.Pairs != 2 {
		t.Errorf("stats = %+v", st)
	}
}

func TestRunSortedOutput(t *testing.T) {
	s := []bitvec.Vector{bitvec.New(1), bitvec.New(1), bitvec.New(1)}
	r := []bitvec.Vector{bitvec.New(1), bitvec.New(1)}
	bf, _ := bruteforce.Build(s, bruteforce.Options{})
	pairs, _, err := Run(bf, r, 0.9, bitvec.BraunBlanquetMeasure)
	if err != nil {
		t.Fatal(err)
	}
	if len(pairs) != 6 {
		t.Fatalf("want 6 pairs, got %d", len(pairs))
	}
	for i := 1; i < len(pairs); i++ {
		a, b := pairs[i-1], pairs[i]
		if a.RIdx > b.RIdx || (a.RIdx == b.RIdx && a.SIdx >= b.SIdx) {
			t.Fatal("pairs not sorted")
		}
	}
}

func TestSelfJoinSkipsIdentityAndDuplicates(t *testing.T) {
	s := []bitvec.Vector{
		bitvec.New(1, 2),
		bitvec.New(1, 2),
		bitvec.New(9),
	}
	bf, _ := bruteforce.Build(s, bruteforce.Options{})
	pairs, st, err := SelfJoin(bf, 0.9, bitvec.BraunBlanquetMeasure)
	if err != nil {
		t.Fatal(err)
	}
	if len(pairs) != 1 || pairs[0].RIdx != 0 || pairs[0].SIdx != 1 {
		t.Fatalf("pairs = %+v", pairs)
	}
	if st.Pairs != 1 {
		t.Errorf("stats = %+v", st)
	}
}

func TestSelfJoinNilIndex(t *testing.T) {
	if _, _, err := SelfJoin(nil, 0.5, bitvec.BraunBlanquetMeasure); err == nil {
		t.Error("nil index should fail")
	}
}

func TestJoinViaSkewSearchFindsPlantedPairs(t *testing.T) {
	// §1.1: similarity join by repeated SkewSearch queries. Plant
	// correlated pairs between R and S and check they are all recovered
	// (compared against the exact prefix-filter join).
	const (
		nS    = 300
		nR    = 40
		alpha = 0.8
	)
	probs := dist.Uniform(1000, 0.1)
	d := dist.MustProduct(probs)
	w, err := datagen.NewCorrelatedWorkload(d, nS, nR, alpha, 3)
	if err != nil {
		t.Fatal(err)
	}
	ix, err := core.BuildCorrelated(d, w.Data, alpha, core.Options{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	threshold := alpha / 1.3
	got, _, err := Run(ix, w.Queries, threshold, bitvec.BraunBlanquetMeasure)
	if err != nil {
		t.Fatal(err)
	}

	pfx, err := prefix.Build(w.Data, probs, threshold, prefix.Options{})
	if err != nil {
		t.Fatal(err)
	}
	want, _, err := Run(pfx, w.Queries, threshold, bitvec.BraunBlanquetMeasure)
	if err != nil {
		t.Fatal(err)
	}

	gotSet := map[[2]int]bool{}
	for _, p := range got {
		gotSet[[2]int{p.RIdx, p.SIdx}] = true
	}
	missing := 0
	for _, p := range want {
		if !gotSet[[2]int{p.RIdx, p.SIdx}] {
			missing++
		}
	}
	if len(want) == 0 {
		t.Fatal("exact join found no pairs; workload broken")
	}
	if rate := 1 - float64(missing)/float64(len(want)); rate < 0.9 {
		t.Errorf("join recall %v (%d/%d pairs)", rate, len(want)-missing, len(want))
	}
	// No false positives: every reported pair genuinely meets the
	// threshold (Run verifies, so this is a consistency check).
	for _, p := range got {
		if bitvec.BraunBlanquet(w.Queries[p.RIdx], w.Data[p.SIdx]) < threshold-1e-9 {
			t.Error("join reported sub-threshold pair")
		}
	}
}

func TestSelfJoinOnSkewedData(t *testing.T) {
	// Self-join with near-duplicates planted in a skewed dataset.
	probs := dist.Zipf(600, 1, 0.4)
	d := dist.MustProduct(probs)
	rng := hashing.NewSplitMix64(11)
	data := d.SampleN(rng, 150)
	// Plant two near-duplicate groups by copying vectors.
	data = append(data, data[0], data[1])
	pfx, err := prefix.Build(data, probs, 0.95, prefix.Options{})
	if err != nil {
		t.Fatal(err)
	}
	pairs, _, err := SelfJoin(pfx, 0.95, bitvec.BraunBlanquetMeasure)
	if err != nil {
		t.Fatal(err)
	}
	found := map[[2]int]bool{}
	for _, p := range pairs {
		found[[2]int{p.RIdx, p.SIdx}] = true
	}
	if !found[[2]int{0, 150}] || !found[[2]int{1, 151}] {
		t.Errorf("planted duplicates not all found: %+v", pairs)
	}
}
