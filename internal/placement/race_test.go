//go:build race

package placement

// raceEnabled reports a -race build, whose instrumentation changes what
// escapes to the heap, so allocation counts do not hold there.
const raceEnabled = true
