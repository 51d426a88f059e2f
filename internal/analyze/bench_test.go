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
