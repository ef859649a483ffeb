//go:build !race

package ctlplane

const raceEnabled = false
