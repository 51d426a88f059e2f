//go:build race

package propagation

// raceEnabled reports whether the race detector is compiled in.
const raceEnabled = true
