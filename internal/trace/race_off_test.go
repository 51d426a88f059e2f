//go:build !race

package trace_test

// raceEnabled reports whether the race detector is compiled in; allocation
// ceilings skip under it (its sync.Pool drops items at random, so fmt's
// printers are reallocated a varying number of times).
const raceEnabled = false
