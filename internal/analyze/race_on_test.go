//go:build race

package analyze_test

// raceEnabled reports whether the race detector is compiled in.
const raceEnabled = true
