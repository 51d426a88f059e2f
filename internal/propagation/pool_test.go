package propagation

import (
	"runtime"
	"runtime/debug"
	"testing"

	"repro/internal/cluster"
	"repro/internal/engine"
	"repro/internal/partition"
)

// steadyAllocs measures per-iteration heap allocations of the pooled
// propagation loop after the scratch slabs are warm. With tree set, each
// iteration is tree-aggregated on a T2 of 8 machines in 2 pods, partitions
// placed at random so that many values cross pods.
func steadyAllocs[V any](t *testing.T, n int, prog Program[V], opt Options, tree bool) float64 {
	t.Helper()
	f := newFixture(t, n, 3, 1)
	iterate := func(r *engine.Runner, st *State[V]) (*State[V], engine.Metrics, error) {
		return iterate(r, f.pg, f.pl, prog, st, opt)
	}
	if tree {
		f.topo = cluster.NewT2(cluster.T2Config{Machines: 8, Pods: 2, Levels: 1})
		f.pl = partition.RandomPlacement(f.pg.Part.P, f.topo, 1)
		iterate = func(r *engine.Runner, st *State[V]) (*State[V], engine.Metrics, error) {
			return RunIterationsTree(r, f.pg, f.pl, prog, st, opt, 1)
		}
	}
	r := engine.New(engine.Config{Topo: f.topo, Workers: 1})
	st := NewState[V](f.pg, prog)
	var err error
	// Two warm iterations: the first sizes the emission logs, bag slab and
	// key caches; the second settles the engine's event freelist.
	for i := 0; i < 2; i++ {
		st, _, err = iterate(r, st)
		if err != nil {
			t.Fatal(err)
		}
	}
	return testing.AllocsPerRun(5, func() {
		st, _, err = iterate(r, st)
		if err != nil {
			t.Fatal(err)
		}
	})
}

// TestSteadyStateAllocsPerMessageZero pins the pooled hot loop: once warm,
// an iteration's allocation count must not scale with the message volume.
// The two fixtures of each row differ by ~8x in edges (and therefore
// messages) at the same partition count, so any per-message or per-emission
// allocation shows up as thousands of extra allocations on the larger run.
// The rows are the plain path, VDD's shape — 64 virtual vertices gathered and
// grouped like a reducer's keys — and that shape tree-aggregated, its
// cross-pod values grouped by (pod, destination) first, all at O4.
func TestSteadyStateAllocsPerMessageZero(t *testing.T) {
	o4 := Options{LocalPropagation: true, LocalCombination: true}
	virtual := o4
	virtual.VirtualVertices = 64
	for _, row := range []struct {
		name    string
		ceiling float64
		allocs  func(t *testing.T, n int) float64
	}{
		{"plain", 42, func(t *testing.T, n int) float64 {
			return steadyAllocs[int64](t, n, sumProgram{}, o4, false)
		}},
		{"virtual", 45, func(t *testing.T, n int) float64 {
			return steadyAllocs[float64](t, n, degreeLike{n: n, buckets: 64}, virtual, false)
		}},
		{"tree", 127, func(t *testing.T, n int) float64 {
			return steadyAllocs[float64](t, n, degreeLike{n: n, buckets: 64}, virtual, true)
		}},
	} {
		t.Run(row.name, func(t *testing.T) {
			small, large := row.allocs(t, 1024), row.allocs(t, 8192)
			if large > small+64 {
				t.Fatalf("steady-state allocs scale with messages: %.0f at 1k vertices vs %.0f at 8k", small, large)
			}
			// And the absolute count must stay bounded: a fixed overhead
			// per iteration (next state, job scaffolding), nothing
			// proportional to the ~100k messages the 8k-vertex fixture
			// moves. The ceiling is the measured count: a change that beats
			// it lowers it. The race detector adds a varying handful of its
			// own, so under it the old coarse bound holds.
			ceiling := row.ceiling
			if raceEnabled {
				ceiling = 600
			}
			t.Logf("%.0f allocations at 1k vertices, %.0f at 8k", small, large)
			if large > ceiling {
				t.Fatalf("steady-state iteration allocates %.0f times, budget %.0f", large, ceiling)
			}
		})
	}
}

// TestPlanBytesAllocBudget is the bytes budget of one fresh ten-iteration
// plan of the scalar program at O4 on nr_262k's deployment at 16k vertices,
// on a serial pool: the growth of runtime.MemStats.TotalAlloc across
// PlanIterations, with the collector off so that fmt's buffer pool is not
// emptied halfway. The ceiling is the measured count plus 4 KiB, for the
// few hundred bytes the runtime now and then allocates beside the plan; a
// change that beats it lowers it. With a builder per partition and a fresh
// value array per iteration the plan took 14 087 368 bytes.
func TestPlanBytesAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates beside the plan")
	}
	const measured = 9_192_152
	const ceiling = measured + 4096
	pg, pl := deployment(t, 16384)
	pool := engine.NewPool(1)
	opt := Options{LocalPropagation: true, LocalCombination: true}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	plan := func() uint64 {
		st := NewState[float64](pg, rankLike{})
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, _, err := PlanIterations(pool, pg, pl, Program[float64](rankLike{}), st, opt, 10, "budget"); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	plan() // first calls of the process, warmed once
	got := plan()
	t.Logf("one fresh 10-iteration O4 plan at 16k vertices: %d bytes", got)
	if got > ceiling {
		t.Errorf("one fresh plan allocated %d bytes, budget %d", got, ceiling)
	}
}
