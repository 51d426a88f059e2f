package analyze_test

import (
	"testing"

	"repro/internal/analyze"
	"repro/internal/cluster"
	"repro/internal/trace/tracetest"
)

// The analyzer's benchmark runs over the capture internal/trace's layer
// benchmarks encode and decode and internal/metrics folds: a little over
// 100k events on 32 machines.
const benchEvents, benchMachines = 100_000, 32

func BenchmarkAnalyze(b *testing.B) {
	events := tracetest.Capture(benchEvents, benchMachines)
	topo := cluster.NewT1(benchMachines)
	b.ReportAllocs()
	for b.Loop() {
		if _, err := analyze.Analyze(events, topo); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(events)), "ns/event")
}

// TestAnalyzeAllocBudget pins what analyzing a small capture allocates. The
// ceiling is the measured count: a change that beats it lowers it.
// Twenty runs, because AllocsPerRun floors the mean: the extra allocations
// an occasional run makes do not move it, one more per call does.
func TestAnalyzeAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts vary under the race detector")
	}
	const ceiling = 147
	events := tracetest.Capture(5_000, 8)
	topo := cluster.NewT1(8)
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := analyze.Analyze(events, topo); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("%.0f allocations", allocs)
	if allocs > ceiling {
		t.Errorf("analyzing %d events allocates %.0f times, over its ceiling of %d", len(events), allocs, ceiling)
	}
}
