package lsf

import (
	"runtime"
	"sync"

	"skewsim/internal/bitvec"
)

// BatchResult is one query's outcome within a batch, mirroring the return
// values of Query.
type BatchResult struct {
	// ID indexes into the data slice; -1 when not found.
	ID         int
	Similarity float64
	Found      bool
	Stats      QueryStats
}

// BatchQuery answers the queries sequentially through the shared
// traversal core, returning one result per query in input order. The
// batch shares a single visited set across queries (the epoch reset makes
// that free), so per-query dedup allocations are amortized away entirely.
func (ix *Index) BatchQuery(qs []bitvec.Vector, threshold float64, m bitvec.Measure) []BatchResult {
	out := make([]BatchResult, len(qs))
	for k, q := range qs {
		out[k] = ix.queryOne(q, threshold, m)
	}
	return out
}

// queryOne is Query packaged as a BatchResult.
func (ix *Index) queryOne(q bitvec.Vector, threshold float64, m bitvec.Measure) BatchResult {
	res := BatchResult{ID: -1}
	res.ID, res.Similarity, res.Stats, res.Found = ix.Query(q, threshold, m)
	return res
}

// QueryParallel is BatchQuery fanned out over `workers` goroutines
// (workers <= 0 selects GOMAXPROCS). The
// index is read-only during queries and every worker draws its own
// visited set from the pool, so results are identical to BatchQuery —
// same ids, similarities, and per-query stats, in input order.
func (ix *Index) QueryParallel(qs []bitvec.Vector, threshold float64, m bitvec.Measure, workers int) []BatchResult {
	out := make([]BatchResult, len(qs))
	ForEachParallel(len(qs), workers, func(k int) {
		out[k] = ix.queryOne(qs[k], threshold, m)
	})
	return out
}

// ForEachParallel runs fn(k) for every k in [0, n) over a worker pool:
// workers <= 0 selects GOMAXPROCS, the worker count is clamped to n, and
// one (or zero) workers degrade to a plain sequential loop. It is the
// single fan-out implementation behind parallel queries at every layer;
// fn must be safe to call concurrently for distinct k.
func ForEachParallel(n, workers int, fn func(k int)) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for k := 0; k < n; k++ {
			fn(k)
		}
		return
	}
	var wg sync.WaitGroup
	next := make(chan int, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range next {
				fn(k)
			}
		}()
	}
	for k := 0; k < n; k++ {
		next <- k
	}
	close(next)
	wg.Wait()
}
