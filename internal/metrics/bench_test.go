package metrics_test

import (
	"reflect"
	"testing"

	"repro/internal/cluster"
	"repro/internal/metrics"
	"repro/internal/trace"
	"repro/internal/trace/tracetest"
)

// The fold's benchmark runs over the capture internal/trace's layer
// benchmarks encode and decode: a little over 100k events on 32 machines.
const benchEvents, benchMachines, benchWindow = 100_000, 32, 0.01

func BenchmarkFromEvents(b *testing.B) {
	events := tracetest.Capture(benchEvents, benchMachines)
	cfg := metrics.Config{Window: benchWindow, Topo: cluster.NewT1(benchMachines)}
	b.SetBytes(int64(len(events)) * int64(reflect.TypeOf(trace.Event{}).Size()))
	b.ReportAllocs()
	for b.Loop() {
		if _, _, err := metrics.FromEvents(events, cfg); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(events)), "ns/event")
}

// BenchmarkJobWindows is the autoscaler's per-job-run fold.
func BenchmarkJobWindows(b *testing.B) {
	events := tracetest.Capture(benchEvents, benchMachines)
	topo := cluster.NewT1(benchMachines)
	b.ReportAllocs()
	for b.Loop() {
		metrics.JobWindows(events, topo)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(events)), "ns/event")
}

// TestObserveAllocatesNothingOnceSeriesExist: folding an event into series
// that exist, over windows they already span, allocates nothing — with a
// topology (dense tables) and without (the on-demand table). The one event
// that stores something, job-admitted with its wait sample, comes once per
// job and is left out of the replay.
func TestObserveAllocatesNothingOnceSeriesExist(t *testing.T) {
	events := tracetest.Capture(5_000, 8)
	replay := make([]trace.Event, 0, len(events))
	for _, ev := range events {
		if ev.Kind != trace.KindJobQueued && ev.Kind != trace.KindJobAdmitted {
			replay = append(replay, ev)
		}
	}
	for _, topo := range []*cluster.Topology{cluster.NewT1(8), nil} {
		col, err := metrics.NewCollector(metrics.Config{Window: benchWindow, Topo: topo})
		if err != nil {
			t.Fatal(err)
		}
		for i := range events {
			col.Observe(&events[i])
		}
		// The stream clock is at its end: replaying the events creates no
		// series, opens no window and seals nothing.
		if allocs := testing.AllocsPerRun(3, func() {
			for i := range replay {
				col.Observe(&replay[i])
			}
		}); allocs != 0 {
			t.Errorf("topology %v: %.0f allocations replaying %d events into existing series", topo != nil, allocs, len(replay))
		}
	}
}

// TestFromEventsAllocBudget pins what folding a capture allocates: a sum or
// an average series hands its accumulator over as its exported values, so
// finishing copies none. The ceiling is the measured count: a change that
// beats it lowers it. Twenty runs, because AllocsPerRun floors the mean: the
// extra allocations an occasional run makes do not move it, one more per
// call does.
func TestFromEventsAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts vary under the race detector")
	}
	const ceiling = 748
	events := tracetest.Capture(5_000, 8)
	cfg := metrics.Config{Window: benchWindow, Topo: cluster.NewT1(8)}
	allocs := testing.AllocsPerRun(20, func() {
		if _, _, err := metrics.FromEvents(events, cfg); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("%.0f allocations", allocs)
	if allocs > ceiling {
		t.Errorf("folding %d events allocates %.0f times, over its ceiling of %d", len(events), allocs, ceiling)
	}
}
