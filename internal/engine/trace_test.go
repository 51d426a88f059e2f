package engine

import (
	"math"
	"testing"

	"repro/internal/cluster"
	"repro/internal/fault"
	"repro/internal/partition"
	"repro/internal/storage"
	"repro/internal/trace"
)

// countKinds tallies an event stream by kind.
func countKinds(evs []trace.Event) map[trace.EventKind]int {
	c := make(map[trace.EventKind]int)
	for _, ev := range evs {
		c[ev.Kind]++
	}
	return c
}

func TestTracedRunEmitsStructuredEvents(t *testing.T) {
	rec := trace.NewRecorder()
	r := New(Config{Topo: cluster.NewT1(2), Trace: rec})
	bytes := int64(cluster.LinkBandwidth)
	job := &Job{Name: "traced", Stages: []*Stage{
		{Name: "produce", Tasks: []*Task{
			{Name: "p0", Machine: 0, Part: 0, Compute: 1, Outputs: []Output{{DstTask: 0, Bytes: bytes}}},
		}},
		{Name: "consume", Tasks: []*Task{
			{Name: "c0", Machine: 1, Part: 1, Compute: 1, Kind: KindCombine},
		}},
	}}
	m, err := r.Run(job)
	if err != nil {
		t.Fatal(err)
	}
	c := countKinds(rec.Events())
	if c[trace.KindJobBegin] != 1 || c[trace.KindJobEnd] != 1 {
		t.Fatalf("job markers = %d/%d", c[trace.KindJobBegin], c[trace.KindJobEnd])
	}
	if c[trace.KindStageBegin] != 2 || c[trace.KindStageEnd] != 2 {
		t.Fatalf("stage markers = %d/%d", c[trace.KindStageBegin], c[trace.KindStageEnd])
	}
	if c[trace.KindTaskStart] != 2 || c[trace.KindTaskEnd] != 2 {
		t.Fatalf("task markers = %d/%d", c[trace.KindTaskStart], c[trace.KindTaskEnd])
	}
	if c[trace.KindTransfer] != 1 {
		t.Fatalf("transfers = %d, want 1", c[trace.KindTransfer])
	}

	// The breakdown computed from the stream must agree with Metrics.
	b := trace.Summarize(rec.Events())
	tot := b.Totals()
	if tot.EgressBytes != m.NetworkBytes || tot.IngressBytes != m.NetworkBytes {
		t.Fatalf("trace bytes egress=%d ingress=%d, metrics=%d",
			tot.EgressBytes, tot.IngressBytes, m.NetworkBytes)
	}
	if tot.TasksRun != m.TasksRun {
		t.Fatalf("trace tasks = %d, metrics = %d", tot.TasksRun, m.TasksRun)
	}
	// One transfer of LinkBandwidth bytes = 1 second on each NIC.
	if math.Abs(tot.EgressBusySeconds-1) > 1e-9 || math.Abs(tot.IngressBusySeconds-1) > 1e-9 {
		t.Fatalf("NIC busy = %v/%v, want 1/1", tot.EgressBusySeconds, tot.IngressBusySeconds)
	}
	// The transfer event must carry the destination task's partition.
	for _, ev := range rec.Events() {
		if ev.Kind == trace.KindTransfer && ev.Part != 1 {
			t.Fatalf("transfer dst partition = %d, want 1", ev.Part)
		}
	}
}

func TestTracedIntraMachineTransferNotEmitted(t *testing.T) {
	rec := trace.NewRecorder()
	r := New(Config{Topo: cluster.NewT1(2), Trace: rec})
	job := &Job{Name: "local", Stages: []*Stage{
		{Tasks: []*Task{{Machine: 0, Compute: 1, Outputs: []Output{{DstTask: 0, Bytes: 1 << 20}}}}},
		{Tasks: []*Task{{Machine: 0, Compute: 1, Kind: KindCombine}}},
	}}
	if _, err := r.Run(job); err != nil {
		t.Fatal(err)
	}
	if n := countKinds(rec.Events())[trace.KindTransfer]; n != 0 {
		t.Fatalf("intra-machine move emitted %d transfer events", n)
	}
}

func TestTracedFailureRecovery(t *testing.T) {
	rec := trace.NewRecorder()
	topo := cluster.NewT1(4)
	pl := &partition.Placement{MachineOf: []cluster.MachineID{0, 1, 2, 3}}
	reps := storage.PlaceReplicas(pl, topo, 1)
	r := New(Config{
		Topo:              topo,
		Replicas:          reps,
		Faults:            &fault.Schedule{Kills: []fault.Kill{{Machine: 0, At: 5}}},
		HeartbeatInterval: 1,
		Trace:             rec,
	})
	tasks := make([]*Task, 4)
	for p := 0; p < 4; p++ {
		tasks[p] = &Task{
			Name: "work", Kind: KindTransfer,
			Part: partition.PartID(p), Machine: cluster.MachineID(p),
			Compute: 10,
		}
	}
	m, err := r.Run(&Job{Name: "failjob", Stages: []*Stage{{Name: "only", Tasks: tasks}}})
	if err != nil {
		t.Fatal(err)
	}
	c := countKinds(rec.Events())
	if c[trace.KindFailure] != 1 {
		t.Fatalf("failure events = %d, want 1", c[trace.KindFailure])
	}
	if c[trace.KindTaskLost] != 1 {
		t.Fatalf("lost-task events = %d, want 1", c[trace.KindTaskLost])
	}
	if c[trace.KindRetry] != int(m.Recoveries) {
		t.Fatalf("retry events = %d, metrics recoveries = %d", c[trace.KindRetry], m.Recoveries)
	}
	// Completions in the trace match the metrics (the aborted original
	// never emits KindTaskEnd).
	if c[trace.KindTaskEnd] != m.TasksRun {
		t.Fatalf("task-end events = %d, metrics tasks = %d", c[trace.KindTaskEnd], m.TasksRun)
	}
	b := trace.Summarize(rec.Events())
	per := b.PerMachine()
	if !per[0].Failed || per[0].TasksLost != 1 {
		t.Fatalf("machine 0 breakdown: failed=%v lost=%d", per[0].Failed, per[0].TasksLost)
	}
}

// TestUntracedRunnerUnchanged: a runner without a recorder behaves exactly
// as before tracing existed (and holds a disabled recorder).
func TestUntracedRunnerUnchanged(t *testing.T) {
	r := simpleRunner(2)
	if r.tr.Enabled() {
		t.Fatal("untraced runner reports an enabled recorder")
	}
	job := &Job{Stages: []*Stage{{Tasks: []*Task{{Machine: 0, Compute: 1}}}}}
	if _, err := r.Run(job); err != nil {
		t.Fatal(err)
	}
	if r.tr.Len() != 0 {
		t.Fatal("untraced run recorded events")
	}
}
