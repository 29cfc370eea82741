package lsf

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// TestForEachParallelClampsWorkers pins the worker clamp every batch
// entry point (core.QueryParallel, the shard router) relies on: a bound
// far above n must not spawn idle goroutines. The observable is the process
// goroutine count sampled while all n tasks are parked inside fn. The
// check is one-sided: a correct clamp always passes, while a lost
// clamp is caught when any of the 61 excess workers are still alive at
// the sample point (and deterministically by the sequential-
// degeneration test below under the race detector).
func TestForEachParallelClampsWorkers(t *testing.T) {
	const (
		n       = 3
		workers = 64
	)
	base := runtime.NumGoroutine()
	var started atomic.Int32
	release := make(chan struct{})
	sampled := make(chan int, 1)
	go func() {
		for started.Load() < n {
			runtime.Gosched()
		}
		sampled <- runtime.NumGoroutine()
		close(release)
	}()
	var mu sync.Mutex
	seen := make(map[int]int)
	ForEachParallel(n, workers, func(k int) {
		started.Add(1)
		<-release
		mu.Lock()
		seen[k]++
		mu.Unlock()
	})
	// Allowed: base + n workers + the monitor goroutine + slack for
	// runtime/test-framework goroutines. An unclamped pool would sit at
	// base + 64 + monitor.
	if g := <-sampled; g > base+n+4 {
		t.Fatalf("%d goroutines live during a %d-task batch (base %d): worker clamp lost", g, n, base)
	}
	if len(seen) != n {
		t.Fatalf("ran %d distinct tasks, want %d", len(seen), n)
	}
	for k, c := range seen {
		if c != 1 {
			t.Fatalf("task %d ran %d times", k, c)
		}
	}
}

// TestForEachParallelSequentialDegeneration: n <= 1 (after clamping)
// must run fn synchronously on the calling goroutine — the plain
// unsynchronized counter would be flagged by the race detector (the CI
// race job) if a pooled goroutine ever executed fn.
func TestForEachParallelSequentialDegeneration(t *testing.T) {
	x := 0
	ForEachParallel(1, 64, func(k int) { x += k + 1 })
	if x != 1 {
		t.Fatalf("x = %d, want 1", x)
	}
}

func TestForEachParallelZeroTasks(t *testing.T) {
	ran := false
	ForEachParallel(0, 8, func(int) { ran = true })
	if ran {
		t.Fatal("fn ran with n = 0")
	}
}
