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

// TestRunJobsAllocBudget pins what the event loop allocates on a small
// fixed faulted run: an all-to-all exchange of 32 producers into 8 combiners
// on 8 machines, three times over, under degraded links, drops and
// slowdowns. A transfer allocates nothing; a drop's retry allocates its
// record once. The ceiling is the measured count: a change that beats it
// lowers it. Twenty runs, because AllocsPerRun floors the mean: the extra
// allocations an occasional run makes do not move it, one more per call does.
func TestRunJobsAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts vary under the race detector")
	}
	const machines, producers, combiners, ceiling = 8, 32, 8, 192
	topo := cluster.NewT1(machines)
	var jobs []*engine.Job
	for j := 0; j < 3; j++ {
		send := &engine.Stage{Name: "send"}
		for i := 0; i < producers; i++ {
			task := &engine.Task{Name: "p", Machine: cluster.MachineID(i % machines), Compute: 0.01}
			for d := 0; d < combiners; d++ {
				task.Outputs = append(task.Outputs, engine.Output{DstTask: d, Bytes: 1 << 20})
			}
			send.Tasks = append(send.Tasks, task)
		}
		combine := &engine.Stage{Name: "combine"}
		for d := 0; d < combiners; d++ {
			combine.Tasks = append(combine.Tasks, &engine.Task{Name: "c", Machine: cluster.MachineID(d), Compute: 0.01, Kind: engine.KindCombine})
		}
		jobs = append(jobs, &engine.Job{Name: "x", Stages: []*engine.Stage{send, combine}})
	}
	base, err := engine.New(engine.Config{Topo: topo, Workers: 1}).RunJobs(jobs)
	if err != nil {
		t.Fatal(err)
	}
	h := base.ResponseSeconds
	faults, _ := fault.Generate(fault.GenConfig{Machines: machines, Horizon: h, Degrades: 16, Drops: 16, Slowdowns: 4, Seed: 1})
	cfg := engine.Config{Topo: topo, Workers: 1, Faults: faults,
		Retry: fault.RetryPolicy{Timeout: h / 100, Backoff: h / 400, MaxBackoff: h / 10}}
	var m engine.Metrics
	allocs := testing.AllocsPerRun(20, func() {
		if m, err = engine.New(cfg).RunJobs(jobs); err != nil {
			t.Fatal(err)
		}
	})
	if m.TransferDrops == 0 || m.TransferRetries == 0 {
		t.Fatalf("the faulted run dropped %d transfers and retried %d; the budget covers neither", m.TransferDrops, m.TransferRetries)
	}
	t.Logf("%.0f allocations, %d drops", allocs, m.TransferDrops)
	if allocs > ceiling {
		t.Errorf("a faulted run allocates %.0f times, over its ceiling of %d", allocs, ceiling)
	}
}
