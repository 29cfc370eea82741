//go:build race

package segment

// raceEnabled reports a -race build, whose instrumentation (and
// sync.Pool's deliberate drops) changes allocation counts.
const raceEnabled = true
