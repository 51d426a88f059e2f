//go:build !race

package propagation

// raceEnabled reports whether the race detector is compiled in; allocation
// ceilings skip under it (it allocates shadow state of its own).
const raceEnabled = false
