package propagation

import (
	"testing"

	"repro/internal/engine"
)

// steadyAllocs measures per-iteration heap allocations of the pooled
// propagation loop after the scratch slabs are warm.
func steadyAllocs(t *testing.T, n int) float64 {
	t.Helper()
	f := newFixture(t, n, 3, 1)
	r := engine.New(engine.Config{Topo: f.topo, Workers: 1})
	st := NewState[int64](f.pg, sumProgram{})
	opt := Options{LocalPropagation: true, LocalCombination: true}
	var err error
	// Two warm iterations: the first sizes the emission logs, bag slab and
	// key caches; the second settles the engine's event freelist.
	for i := 0; i < 2; i++ {
		st, _, err = Iterate(r, f.pg, f.pl, sumProgram{}, st, opt)
		if err != nil {
			t.Fatal(err)
		}
	}
	return testing.AllocsPerRun(5, func() {
		st, _, err = Iterate(r, f.pg, f.pl, sumProgram{}, st, opt)
		if err != nil {
			t.Fatal(err)
		}
	})
}

// TestSteadyStateAllocsPerMessageZero pins the pooled hot loop: once warm,
// an iteration's allocation count must not scale with the message volume.
// The two fixtures differ by ~8x in edges (and therefore messages) at the
// same partition count, so any per-message or per-emission allocation shows
// up as thousands of extra allocations on the larger run.
func TestSteadyStateAllocsPerMessageZero(t *testing.T) {
	small := steadyAllocs(t, 1024)
	large := steadyAllocs(t, 8192)
	if large > small+64 {
		t.Fatalf("steady-state allocs scale with messages: %.0f at 1k vertices vs %.0f at 8k", small, large)
	}
	// And the absolute count must stay bounded: a fixed overhead per
	// iteration (next state, job scaffolding), nothing proportional to the
	// ~100k messages the 8k-vertex fixture moves. The ceiling is the measured
	// count: a change that beats it lowers it. The race detector adds a
	// varying handful of its own, so under it the old coarse bound holds.
	ceiling := 113.0
	if raceEnabled {
		ceiling = 600
	}
	t.Logf("%.0f allocations at 1k vertices, %.0f at 8k", small, large)
	if large > ceiling {
		t.Fatalf("steady-state iteration allocates %.0f times, budget %.0f", large, ceiling)
	}
}
