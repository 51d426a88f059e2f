//go:build race

package metrics_test

// raceEnabled reports whether the race detector is compiled in.
const raceEnabled = true
