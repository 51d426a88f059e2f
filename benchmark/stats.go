package main

import (
	"math"
	"sort"
)

// median returns the middle value of xs (the mean of the two middle values
// for an even count), or 0 for an empty slice. xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the three cut points Python's
// statistics.quantiles(xs, n=4) gives (the default "exclusive" method), so
// the spread -stability prints is the one the contract's driver computes.
// It needs at least two values.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		return math.NaN(), math.NaN(), math.NaN()
	}
	cut := func(i int) float64 {
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := i*(n+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}

// spread is the distance between the first and third quartile as a share of
// the median: the run-to-run steadiness figure the contract bounds.
func spread(xs []float64) float64 {
	q1, q2, q3 := quartiles(xs)
	if q2 == 0 {
		return math.Inf(1)
	}
	return math.Abs((q3 - q1) / q2)
}

// amdahlSerialFraction inverts Amdahl's law: a measured speedup s on n
// workers implies the share f of the work that stayed serial,
// s = 1 / (f + (1-f)/n). With one worker nothing ran in parallel, so the
// whole plan counts as serial. The result is clamped to [0, 1]: timing noise
// can put a speedup slightly outside [1, n].
func amdahlSerialFraction(s float64, n int) float64 {
	if n < 2 || s <= 0 {
		return 1
	}
	f := (float64(n)/s - 1) / float64(n-1)
	return math.Max(0, math.Min(1, f))
}

// worseBy reports by what share of base the value got worse, given the
// metric's direction; negative means it improved.
func worseBy(base, value float64, better string) float64 {
	if base == 0 {
		if value == 0 {
			return 0
		}
		return math.Inf(1)
	}
	d := (value - base) / math.Abs(base)
	if better == "higher" {
		return -d
	}
	return d
}
