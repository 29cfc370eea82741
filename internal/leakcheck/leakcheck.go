// Package leakcheck fails a test binary whose tests leave goroutines
// running. A package opts in with
//
//	func TestMain(m *testing.M) { leakcheck.Main(m) }
package leakcheck

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"testing"
	"time"
)

// settleTime is how long goroutines get to finish exiting after the
// tests (or the code under test) have dropped them.
const settleTime = 2 * time.Second

// Main runs the tests and then waits for the goroutine count to return
// to what it was before them. If it does not, Main prints every
// goroutine's stack and the binary fails.
func Main(m *testing.M) {
	base := runtime.NumGoroutine()
	code := m.Run()
	// A fuzzing run leaves the fuzz engine's own signal goroutines
	// running, so only test runs are checked.
	fuzzing := flag.Lookup("test.fuzz").Value.String() != ""
	if code == 0 && !fuzzing && !Settle(base) {
		buf := make([]byte, 1<<20)
		buf = buf[:runtime.Stack(buf, true)]
		fmt.Fprintf(os.Stderr, "leakcheck: %d goroutines after the tests, %d before\n%s\n", runtime.NumGoroutine(), base, buf)
		code = 1
	}
	os.Exit(code)
}

// Settle polls runtime.NumGoroutine until it is at most base, for up to
// two seconds, and reports whether it got there.
func Settle(base int) bool {
	deadline := time.Now().Add(settleTime)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(10 * time.Millisecond)
	}
	return true
}
