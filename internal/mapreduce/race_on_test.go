//go:build race

package mapreduce

// raceEnabled reports whether the race detector is compiled in.
const raceEnabled = true
