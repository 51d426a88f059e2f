package mapreduce

import (
	"runtime/debug"
	"testing"

	"repro/internal/cluster"
	"repro/internal/engine"
	"repro/internal/graph"
)

// TestRunAllocBudget pins what one whole Run allocates on a serial runner,
// with and without a combiner, at two sizes eight times apart in edges: the
// shuffle's buffers are per task and per worker, never per pair, so the
// counts stay in the low hundreds at both. The ceilings are the measured
// counts: a change that beats one lowers it.
func TestRunAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts vary under the race detector")
	}
	// A collection during the measured runs would empty fmt's buffer pool and
	// cost the next task name an allocation: measure with the collector off.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	for _, c := range []struct {
		n              int
		plain, combine float64
	}{{1024, 207, 208}, {8192, 253, 254}} {
		pg, pl, _ := newFixture(t, c.n, 3, 1)
		r := engine.New(engine.Config{Topo: cluster.NewT1(4), Workers: 1})
		for _, p := range []struct {
			name    string
			prog    Program[graph.VertexID, int64, int64]
			ceiling float64
		}{{"edgeCount", edgeCount{}, c.plain}, {"combiningCount", combiningCount{}, c.combine}} {
			allocs := testing.AllocsPerRun(5, func() {
				if _, _, err := Run(r, pg, pl, p.prog, Options{}); err != nil {
					t.Fatal(err)
				}
			})
			t.Logf("%s at %d vertices: %.0f allocations", p.name, c.n, allocs)
			if allocs > p.ceiling {
				t.Errorf("%s at %d vertices allocates %.0f times, budget %.0f", p.name, c.n, allocs, p.ceiling)
			}
		}
	}
}
