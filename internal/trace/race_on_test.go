//go:build race

package trace_test

// raceEnabled reports whether the race detector is compiled in.
const raceEnabled = true
