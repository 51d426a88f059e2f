package storage

import (
	"fmt"
	"testing"

	"repro/internal/graph"
	"repro/internal/partition"
)

var benchSink int

// BenchmarkBuild is the storage layer alone: Build over a finished 6-level
// bisection of the social graph at the sizes of the benchmark/ workloads
// (262k is skipped under -short). ci.sh runs it once, with -short.
func BenchmarkBuild(b *testing.B) {
	for _, n := range []int{1 << 16, 1 << 18} {
		b.Run(fmt.Sprintf("%dk", n>>10), func(b *testing.B) {
			if n > 1<<16 && testing.Short() {
				b.Skip("262k vertices: skipped under -short")
			}
			g := graph.Social(graph.DefaultSocial(n, 42))
			pt, _ := partition.RecursiveBisect(g, 6, partition.Options{Seed: 42})
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				pg, err := Build(g, pt)
				if err != nil {
					b.Fatal(err)
				}
				benchSink += len(pg.Parts)
			}
		})
	}
}

// TestBuildAllocBudget pins what Build allocates over a finished bisection
// of the 4k social graph into 16 partitions. The ceiling is the measured
// count: a change that beats it lowers it.
// Twenty runs, because AllocsPerRun floors the mean: the extra allocations
// an occasional run makes do not move it, one more per call does.
func TestBuildAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts vary under the race detector")
	}
	const ceiling = 156
	g := graph.Social(graph.DefaultSocial(4096, 42))
	pt, _ := partition.RecursiveBisect(g, 4, partition.Options{Seed: 42})
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := Build(g, pt); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("%.0f allocations", allocs)
	if allocs > ceiling {
		t.Errorf("building %d partitions allocates %.0f times, over its ceiling of %d", pt.P, allocs, ceiling)
	}
}
