package jobsvc

import (
	"runtime"
	"testing"

	"repro/internal/engine"
	"repro/internal/trace"
)

// BenchmarkEventLoop measures the one event loop through both of its
// clients on the same plan — Runner.Run job by job, and the job service
// running the plan as one job — with the recorder off and on, per event.
func BenchmarkEventLoop(b *testing.B) {
	plan := SyntheticPlan(42, 8, 8, 4, 32)
	topo := testTopo()
	clients := []struct {
		name string
		run  func(rec *trace.Recorder) error
	}{
		{"engine", func(rec *trace.Recorder) error {
			r := engine.New(engine.Config{Topo: topo, Workers: 1, Trace: rec})
			for _, job := range plan {
				if _, err := r.Run(job); err != nil {
					return err
				}
			}
			return nil
		}},
		{"service", func(rec *trace.Recorder) error {
			_, err := Run(Config{Topo: topo, Policy: FIFO, Concurrency: 1, Trace: rec},
				[]Job{{Spec: JobSpec{ID: "bench", Tenant: "t"}, Plan: plan}})
			return err
		}},
	}
	for _, c := range clients {
		count := trace.NewRecorder()
		if err := c.run(count); err != nil {
			b.Fatal(err)
		}
		events := float64(count.Len())
		for _, traced := range []bool{false, true} {
			name := c.name + "/bare"
			if traced {
				name = c.name + "/traced"
			}
			b.Run(name, func(b *testing.B) {
				b.ReportAllocs()
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				for i := 0; i < b.N; i++ {
					var rec *trace.Recorder
					if traced {
						rec = trace.NewRecorder()
					}
					if err := c.run(rec); err != nil {
						b.Fatal(err)
					}
				}
				runtime.ReadMemStats(&after)
				n := float64(b.N) * events
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/n, "ns/event")
				b.ReportMetric(float64(after.Mallocs-before.Mallocs)/n, "allocs/event")
			})
		}
	}
}
