//go:build !race

package mapreduce

// raceEnabled reports whether the race detector is compiled in; allocation
// ceilings skip under it (it allocates shadow state of its own).
const raceEnabled = false
