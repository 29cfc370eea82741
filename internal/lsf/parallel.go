package lsf

import (
	"runtime"
	"sync"
)

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
