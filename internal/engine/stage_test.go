package engine

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/cluster"
	"repro/internal/fault"
	"repro/internal/trace"
)

// TestTwoOpenStagesShareTheCluster drives the stepping surface the way the
// job service does: one plan opened twice under two labels, both stages in
// flight over the same slots and NICs. The shared *Task must not confuse the
// two runs — queue entries are (stage run, task) — and each run accounts
// into its own Metrics.
func TestTwoOpenStagesShareTheCluster(t *testing.T) {
	rec := trace.NewRecorder()
	r := New(Config{Topo: cluster.NewT1(2), Trace: rec})
	plan := transferJob()
	pin := func(t *Task) (cluster.MachineID, error) { return t.Machine, nil }
	var ma, mb Metrics
	open := func(label string, si int, at float64, cause int, m *Metrics) *StageRun {
		sr, err := r.Open(StageSpec{Job: plan, Index: si, Label: label, Tenant: "t-" + label,
			At: at, Cause: cause, Metrics: m, Place: pin})
		if err != nil {
			t.Fatal(err)
		}
		return sr
	}
	a, b := open("a", 0, 0, trace.None, &ma), open("b", 0, 0, trace.None, &mb)
	if got := r.Load(0); got != 2 {
		t.Fatalf("load on machine 0 = %d, want both producers (one running, one queued)", got)
	}
	// One slot: a's producer runs [0,1), b's [1,2); their 1 s transfers
	// serialize on machine 0's egress NIC: a's over [1,2), b's over [2,3).
	ends := map[*StageRun]float64{}
	for len(ends) < 2 {
		closed, err := r.Step()
		if err != nil {
			t.Fatal(err)
		}
		if closed != nil {
			ends[closed] = closed.End()
		}
	}
	if ends[a] != 2 || ends[b] != 3 {
		t.Fatalf("barriers closed at a=%g b=%g, want 2 and 3", ends[a], ends[b])
	}
	if _, pending := r.NextEvent(); pending {
		t.Fatal("events pending after both barriers closed")
	}
	if ma != mb || ma.TasksRun != 1 || ma.NetworkBytes != int64(cluster.LinkBandwidth) || a.MachineSeconds() != 1 {
		t.Fatalf("per-run accounts differ or are wrong: a %+v, b %+v", ma, mb)
	}
	for _, ev := range rec.Events() {
		if ev.Tenant != "t-"+ev.Job {
			t.Fatalf("event carries job %q but tenant %q: %+v", ev.Job, ev.Tenant, ev)
		}
	}
	// The job's last stage closes with a job-end after its stage-end.
	last := open("a", 1, ends[a], a.EndSeq(), &ma)
	for closed := (*StageRun)(nil); closed != last; {
		var err error
		if closed, err = r.Step(); err != nil {
			t.Fatal(err)
		}
	}
	if ev := rec.Events()[last.EndSeq()]; ev.Kind != trace.KindJobEnd || ev.Job != "a" || ev.Time != 3 {
		t.Fatalf("last barrier's marker is %+v, want a's job-end at 3", ev)
	}
}

// TestFailedRunLeavesRunnerClean: a run aborted mid-stage must not leak its
// queued events, tasks or busy slots into the next job on the same runner
// (the scheduler keeps serving after a job fails).
func TestFailedRunLeavesRunnerClean(t *testing.T) {
	sched := &fault.Schedule{Drops: []fault.LinkFault{{Src: 0, Dst: 1, From: 0, Until: 1.5}}}
	r := New(Config{Topo: cluster.NewT1(2), Faults: sched, Retry: fault.RetryPolicy{MaxAttempts: 1}})
	job := transferJob()
	job.Stages[0].Tasks = append(job.Stages[0].Tasks, &Task{Name: "long", Machine: 1, Compute: 50})
	if _, err := r.Run(job); err == nil {
		t.Fatal("run with an exhausted retry budget succeeded")
	}
	m, err := r.Run(&Job{Name: "next", Stages: []*Stage{{Name: "s", Tasks: []*Task{
		{Name: "x", Machine: 0, Compute: 1}, {Name: "y", Machine: 1, Compute: 2}}}}})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(m.ResponseSeconds-2) > 1e-9 || m.TasksRun != 2 {
		t.Fatalf("job after a failed run: %+v, want 2 tasks in 2 s", m)
	}
}

// TestConcurrentReplaysShareOnePlan: the engine only reads the plans it is
// given, so two runners may replay one *Job at once, as a plan memo or a
// parallel sweep does. Under -race any write to a Job, Stage or Task the
// replays share is reported.
func TestConcurrentReplaysShareOnePlan(t *testing.T) {
	job, _ := randomJob(rand.New(rand.NewSource(5)), 4)
	var wg sync.WaitGroup
	ms := make([]Metrics, 2)
	errs := make([]error, 2)
	for i := range ms {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ms[i], errs[i] = New(Config{Topo: cluster.NewT1(4)}).RunJobs([]*Job{job, job, job})
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if ms[0] != ms[1] || ms[0].TasksRun == 0 {
		t.Fatalf("replays of one plan differ or ran nothing:\n%+v\n%+v", ms[0], ms[1])
	}
}
