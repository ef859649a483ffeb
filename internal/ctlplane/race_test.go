//go:build race

package ctlplane

// raceEnabled reports a -race build: sync.Pool then drops a random quarter
// of what it is given, so a byte count that relies on pooled buffers does
// not hold.
const raceEnabled = true
