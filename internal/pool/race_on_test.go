//go:build race

package pool

// raceEnabled reports whether the race detector is compiled in.
const raceEnabled = true
