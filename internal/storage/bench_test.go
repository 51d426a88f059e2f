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
