package apps

import (
	"runtime/debug"
	"testing"

	"repro/internal/cluster"
	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/partition"
	"repro/internal/propagation"
	"repro/internal/storage"
)

// TestRLGPlanAllocBudget pins what one RLG plan allocates on a serial pool at
// O4: a 4 096-vertex social graph, its emission scattered as one list per
// source rather than one per edge, and each bag and merged group
// concatenated at its exact length. The ceiling is the measured count: a
// change that beats it lowers it.
func TestRLGPlanAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts vary under the race detector")
	}
	const ceiling = 13804
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	g := graph.Social(graph.DefaultSocial(4096, 42))
	pt, sk := partition.RecursiveBisect(g, 3, partition.Options{Seed: 42})
	pg, err := storage.Build(g, pt)
	if err != nil {
		t.Fatal(err)
	}
	pl := partition.SketchPlacement(sk, cluster.NewT1(8))
	pool := engine.NewPool(1)
	opt := propagation.Options{LocalPropagation: true, LocalCombination: true}
	allocs := testing.AllocsPerRun(5, func() {
		if _, _, err := NewRLG().Plan(pool, pg, pl, opt); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("one RLG plan at %d vertices, %d edges: %.0f allocations", g.NumVertices(), g.NumEdges(), allocs)
	if allocs > ceiling {
		t.Errorf("one RLG plan allocates %.0f times, budget %d", allocs, ceiling)
	}
}
