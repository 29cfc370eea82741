package core_test

import (
	"fmt"
	"log"

	"skewsim/internal/core"
	"skewsim/internal/datagen"
	"skewsim/internal/dist"
)

// Build a SkewSearch index over vectors drawn from a skewed product
// distribution, then answer planted α-correlated queries.
func ExampleBuildCorrelated() {
	// A skewed distribution: 400 common items (p = 0.2) and 3200 rare
	// items (p = 0.025). Expected set size Σp = 160.
	d, err := dist.NewProduct(dist.TwoBlock(400, 0.2, 3200, 0.025))
	if err != nil {
		log.Fatal(err)
	}

	// A workload with planted α-correlated queries: each query q is a
	// noisy copy of some data vector x (q_i = x_i with probability α).
	const alpha = 0.75
	w, err := datagen.NewCorrelatedWorkload(d, 1000 /* data */, 5 /* queries */, alpha, 42)
	if err != nil {
		log.Fatal(err)
	}

	// Index the dataset for correlated queries (Theorem 1 mode).
	ix, err := core.BuildCorrelated(d, w.Data, alpha, core.Options{Seed: 1})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("indexed %d vectors with %d filter repetitions (threshold b1 = %.3f)\n",
		len(w.Data), ix.Repetitions(), ix.Threshold())

	for k, q := range w.Queries {
		res := ix.Query(q)
		status := "MISS"
		if res.Found && res.ID == w.Targets[k] {
			status = "HIT (planted target)"
		} else if res.Found {
			status = "found another close vector"
		}
		fmt.Printf("query %d: %s  id=%d  similarity=%.3f  work: %d filters, %d candidates (of %d vectors)\n",
			k, status, res.ID, res.Similarity, res.Stats.Filters, res.Stats.Candidates, len(w.Data))
	}

	// The theory predicts the query exponent for this instance.
	rho, err := ix.PredictedQueryRho(w.Queries[0])
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("predicted query exponent rho = %.3f (cost ~ n^rho per repetition)\n", rho)
	// Output:
	// indexed 1000 vectors with 11 filter repetitions (threshold b1 = 0.577)
	// query 0: HIT (planted target)  id=0  similarity=0.782  work: 13 filters, 1 candidates (of 1000 vectors)
	// query 1: HIT (planted target)  id=200  similarity=0.762  work: 11 filters, 2 candidates (of 1000 vectors)
	// query 2: HIT (planted target)  id=400  similarity=0.722  work: 20 filters, 2 candidates (of 1000 vectors)
	// query 3: HIT (planted target)  id=600  similarity=0.736  work: 19 filters, 7 candidates (of 1000 vectors)
	// query 4: HIT (planted target)  id=800  similarity=0.745  work: 2 filters, 1 candidates (of 1000 vectors)
	// predicted query exponent rho = 0.096 (cost ~ n^rho per repetition)
}
