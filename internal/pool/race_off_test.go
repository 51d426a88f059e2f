//go:build !race

package pool

// raceEnabled reports whether the race detector is compiled in; allocation
// counts are only meaningful without it.
const raceEnabled = false
