package core

import (
	"runtime"
	"testing"

	"skewsim/internal/dist"
	"skewsim/internal/hashing"
	"skewsim/internal/leakcheck"
)

func TestMain(m *testing.M) { leakcheck.Main(m) }

// TestBuildAndDropLeavesNoGoroutine: an Index has no Close, so building
// and dropping indexes must not leave goroutines behind — the segment
// worker starts only on a write.
func TestBuildAndDropLeavesNoGoroutine(t *testing.T) {
	d := dist.MustProduct(dist.Zipf(64, 0.5, 1.0))
	data := d.SampleN(hashing.NewSplitMix64(3), 50)
	base := runtime.NumGoroutine()
	for i := range 100 {
		ix, err := BuildAdversarial(d, data, 0.5, Options{Seed: uint64(i), Repetitions: 2})
		if err != nil {
			t.Fatal(err)
		}
		ix.Query(data[i%len(data)])
	}
	if !leakcheck.Settle(base) {
		t.Fatalf("%d goroutines after building and dropping 100 indexes, %d before", runtime.NumGoroutine(), base)
	}
}
