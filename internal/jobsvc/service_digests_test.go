package jobsvc

import (
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"repro/internal/engine"
	"repro/internal/fault"
	"repro/internal/graph"
	"repro/internal/trace"
)

var update = flag.Bool("update", false, "rewrite testdata/service_digests.golden")

// digestRetry is short against the millisecond stages of the digest
// workloads, so drops are detected, backed off and retried inside a stage.
var digestRetry = fault.RetryPolicy{Timeout: 0.002, Backoff: 0.0005, MaxBackoff: 0.004}

// digestJobs is the synthetic workload of the digest rows: ten jobs of two
// plan jobs each (three stages of five tasks) from three tenants, priorities
// cycling, arrivals 0.7 ms apart with one same-instant pair.
func digestJobs(seed int64) []Job {
	const n = 10
	plans := SyntheticPlan(seed, 8, 2*n, 3, 5)
	jobs := make([]Job, n)
	for i := range jobs {
		jobs[i] = Job{
			Spec: JobSpec{
				ID:       fmt.Sprintf("job-%02d", i),
				Tenant:   fmt.Sprintf("tenant-%d", i%3),
				Priority: i % 3,
				Submit:   0.0007 * float64(i),
			},
			Plan: plans[2*i : 2*i+2],
		}
	}
	jobs[4].Spec.Submit = jobs[3].Spec.Submit
	return jobs
}

// plannedJobs is the Planner-planned workload: eight jobs over two apps and
// at most two iterations, so several jobs share one cached plan, arriving
// faster than they finish so the shared plans run concurrently.
func plannedJobs(t *testing.T) []Job {
	t.Helper()
	p, err := NewPlanner(PlannerConfig{Graph: graph.Social(graph.DefaultSocial(1024, 7)),
		Topo: testTopo(), Levels: 3, Seed: 7, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	jobs, err := p.Jobs(GenerateWorkload(GenConfig{Jobs: 8, Tenants: 3, MeanGap: 0.0001, MaxPriority: 2, MaxIterations: 2, Seed: 11}))
	if err != nil {
		t.Fatal(err)
	}
	return jobs
}

// digestScenarios are the service configurations every workload runs under.
// The elastic schedule carries no NIC rate cap: the digests pin scheduling,
// rerouting and the transfer machinery, not the cap.
var digestScenarios = []struct {
	name string
	cfg  func(seed int64) Config
}{
	{"clean", func(int64) Config { return Config{} }},
	{"faults", func(seed int64) Config {
		sched, _ := fault.Generate(fault.GenConfig{Machines: 8, Horizon: 0.2, Degrades: 6, Drops: 6, Slowdowns: 3, Seed: seed})
		return Config{Faults: sched, Retry: digestRetry}
	}},
	{"elastic", func(int64) Config {
		return Config{Faults: &fault.Schedule{
			Joins:  []fault.MachineJoin{{Machine: 5, At: 0.03}, {Machine: 7, At: 0.12}},
			Drains: []fault.MachineDrain{{Machine: 2, At: 0.02, Deadline: 1}, {Machine: 0, At: 0.09, Deadline: 1}},
		}}
	}},
	{"queuelimit", func(int64) Config { return Config{QueueLimit: 2} }},
}

// serviceDigest runs jobs under cfg and hashes every record and the whole
// event stream.
func serviceDigest(t *testing.T, cfg Config, jobs []Job) string {
	t.Helper()
	rec := trace.NewRecorder()
	cfg.Topo, cfg.Trace = testTopo(), rec
	recs, err := Run(cfg, jobs)
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	if err := json.NewEncoder(h).Encode(recs); err != nil {
		t.Fatal(err)
	}
	if err := trace.WriteEvents(h, nil, rec.Events()); err != nil {
		t.Fatal(err)
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// TestServiceDigestsGolden pins the job service bit for bit: the golden was
// recorded while the service still ran its own event loop, so a change to
// the shared executor that moves one event, one cause or one float of one
// record fails here. Rows are {fifo, fair, priority} x Concurrency {1, 2, 4}
// x {fault-free, degrades+drops+slowdowns with a short retry policy, a
// join+drain schedule that reroutes, queue-limit rejections} x the synthetic
// workload at three seeds and one Planner-planned workload (shared plans).
func TestServiceDigestsGolden(t *testing.T) {
	const path = "testdata/service_digests.golden"
	workloads := []struct {
		name string
		seed int64
		jobs []Job
	}{
		{"synthetic", 1, digestJobs(1)},
		{"synthetic", 42, digestJobs(42)},
		{"synthetic", 2010, digestJobs(2010)},
		{"planned", 7, plannedJobs(t)},
	}
	var got strings.Builder
	for _, wl := range workloads {
		for _, sc := range digestScenarios {
			for _, pol := range Policies {
				for _, conc := range []int{1, 2, 4} {
					cfg := sc.cfg(wl.seed)
					cfg.Policy, cfg.Concurrency = pol, conc
					fmt.Fprintf(&got, "%s %d %s %s %d %s\n", wl.name, wl.seed, sc.name, pol, conc,
						serviceDigest(t, cfg, wl.jobs))
				}
			}
		}
	}
	if *update {
		if err := os.WriteFile(path, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	wantLines := strings.Split(strings.TrimSpace(string(want)), "\n")
	gotLines := strings.Split(strings.TrimSpace(got.String()), "\n")
	if len(gotLines) != len(wantLines) {
		t.Fatalf("%d digest rows, golden has %d", len(gotLines), len(wantLines))
	}
	for i, l := range gotLines {
		if l != wantLines[i] {
			t.Errorf("digest differs from golden:\n got %s\nwant %s", l, wantLines[i])
		}
	}
}

// TestServiceMatchesEngineAtConcurrencyOne is the differential that keeps the
// engine's two clients from drifting: one job through the service at
// Concurrency 1, FIFO, yields the event stream of Runner.Run over the same
// plan — modulo the service's job-queued/job-admitted events, the Tenant
// field, the "<id>/" job-name prefix and the Seq/Cause renumbering those
// imply — and a record equal to Runner.Metrics() field by field, with and
// without a degrade/drop/slowdown schedule.
func TestServiceMatchesEngineAtConcurrencyOne(t *testing.T) {
	for _, faulty := range []bool{false, true} {
		t.Run(fmt.Sprintf("faults=%v", faulty), func(t *testing.T) {
			plan := SyntheticPlan(42, 8, 3, 3, 8)
			var sched *fault.Schedule
			var retry fault.RetryPolicy
			if faulty {
				sched, _ = fault.Generate(fault.GenConfig{Machines: 8, Horizon: 0.1, Degrades: 4, Drops: 4, Slowdowns: 2, Seed: 42})
				retry = digestRetry
			}

			engRec := trace.NewRecorder()
			r := engine.New(engine.Config{Topo: testTopo(), Trace: engRec, Faults: sched, Retry: retry})
			for _, job := range plan {
				if _, err := r.Run(job); err != nil {
					t.Fatal(err)
				}
			}

			svcRec := trace.NewRecorder()
			recs, err := Run(Config{Topo: testTopo(), Policy: FIFO, Concurrency: 1, Trace: svcRec, Faults: sched, Retry: retry},
				[]Job{{Spec: JobSpec{ID: "solo", Tenant: "t"}, Plan: plan}})
			if err != nil {
				t.Fatal(err)
			}

			// Project the service stream onto the engine's vocabulary.
			renumber := make(map[int]int)
			var got []trace.Event
			for _, ev := range svcRec.Events() {
				if ev.Kind == trace.KindJobQueued || ev.Kind == trace.KindJobAdmitted {
					continue
				}
				renumber[ev.Seq] = len(got)
				ev.Seq = len(got)
				if c, ok := renumber[ev.Cause]; ok {
					ev.Cause = c
				} else {
					ev.Cause = trace.None
				}
				ev.Tenant = ""
				ev.Job = strings.TrimPrefix(ev.Job, "solo/")
				got = append(got, ev)
			}
			want := engRec.Events()
			if len(got) != len(want) {
				t.Fatalf("service stream has %d engine-kind events, engine stream %d", len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("event %d differs:\nservice %+v\nengine  %+v", i, got[i], want[i])
				}
			}
			if faulty {
				var drops int
				for _, ev := range want {
					if ev.Kind == trace.KindTransferDrop {
						drops++
					}
				}
				if drops == 0 {
					t.Fatal("fault schedule dropped no transfer; the differential exercises nothing")
				}
			}

			m, rec := r.Metrics(), recs[0]
			if rec.Finished != m.ResponseSeconds || rec.MachineSeconds != m.MachineSeconds ||
				rec.NetworkBytes != m.NetworkBytes || rec.DiskBytes != m.DiskBytes || rec.TasksRun != m.TasksRun ||
				rec.TransferDrops != m.TransferDrops || rec.TransferRetries != m.TransferRetries {
				t.Fatalf("record differs from Runner.Metrics():\nrecord  %+v\nmetrics %+v", rec, m)
			}
		})
	}
}
