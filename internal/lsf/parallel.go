package lsf

import (
	"errors"
	"runtime"

	"skewsim/internal/bitvec"
)

// BuildIndexParallel builds the same index as BuildIndex using `workers`
// goroutines for filter generation (workers <= 0 selects GOMAXPROCS).
// Filter computation is embarrassingly parallel — each vector's F(x)
// depends only on the shared hash functions — while bucket insertion
// stays single-threaded in id order, so the result is bit-identical to
// the serial build.
func BuildIndexParallel(engine *Engine, data []bitvec.Vector, workers int) (*Index, error) {
	if engine == nil {
		return nil, errors.New("lsf: nil engine")
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(data) {
		workers = len(data)
	}
	if workers <= 1 {
		return BuildIndex(engine, data)
	}

	// Each worker fills its own arena-backed FilterSet (one Elems/Spans
	// pair per vector instead of one slice per path), then insertion runs
	// single-threaded in id order so the result is bit-identical.
	sets := make([]FilterSet, len(data))
	ForEachParallel(len(data), workers, func(id int) {
		engine.FiltersInto(data[id], &sets[id])
	})

	b := NewBuilder(engine)
	for id := range sets {
		b.addFilterSet(int32(id), &sets[id])
	}
	return b.Freeze(data), nil
}
