package engine_test

import (
	"testing"

	"repro/internal/apps"
	"repro/internal/cluster"
	"repro/internal/engine"
	"repro/internal/fault"
	"repro/internal/graph"
	"repro/internal/partition"
	"repro/internal/propagation"
	"repro/internal/storage"
	"repro/internal/trace"
)

// BenchmarkRunJobs times the event loop alone on the benchmark's fanout
// shape: NR's ten iterations planned once at O1 over 16k vertices, 256
// partitions placed at random on a 128-machine T2, then run bare, with a
// recorder, and under a generated fault schedule whose horizon — and retry
// policy — is the bare run's response. events is the run's stream length.
func BenchmarkRunJobs(b *testing.B) {
	g := graph.Social(graph.DefaultSocial(1<<14, 42))
	topo := cluster.NewT2(cluster.T2Config{Machines: 128, Pods: 4, Levels: 1})
	pt, _ := partition.RecursiveBisect(g, 8, partition.Options{Seed: 42})
	pg, err := storage.Build(g, pt)
	if err != nil {
		b.Fatal(err)
	}
	prog := apps.NRProgram(g)
	jobs, _, err := propagation.PlanIterations(engine.NewPool(1), pg, partition.RandomPlacement(pt.P, topo, 42),
		prog, propagation.NewState(pg, prog), propagation.Options{}, 10, "bench")
	if err != nil {
		b.Fatal(err)
	}
	base, err := engine.New(engine.Config{Topo: topo, Workers: 1}).RunJobs(jobs)
	if err != nil {
		b.Fatal(err)
	}
	h := base.ResponseSeconds
	faults, _ := fault.Generate(fault.GenConfig{Machines: 128, Horizon: h, Degrades: 200, Drops: 200, Slowdowns: 32, Seed: 42})
	retry := fault.RetryPolicy{Timeout: h / 100, Backoff: h / 400, MaxBackoff: h / 10}
	for _, v := range []struct {
		name            string
		traced, faulted bool
	}{{"bare", false, false}, {"traced", true, false}, {"faulted", false, true}} {
		config := func(rec *trace.Recorder) engine.Config {
			cfg := engine.Config{Topo: topo, Workers: 1, Trace: rec}
			if v.faulted {
				cfg.Faults, cfg.Retry = faults, retry
			}
			return cfg
		}
		count := trace.NewRecorder()
		if _, err := engine.New(config(count)).RunJobs(jobs); err != nil {
			b.Fatal(err)
		}
		b.Run(v.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				var rec *trace.Recorder
				if v.traced {
					rec = trace.NewRecorder()
				}
				if _, err := engine.New(config(rec)).RunJobs(jobs); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(count.Len()), "events")
		})
	}
}
