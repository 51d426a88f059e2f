package engine

import (
	"math"
	"testing"

	"repro/internal/cluster"
	"repro/internal/fault"
	"repro/internal/partition"
	"repro/internal/storage"
)

func simpleRunner(n int) *Runner {
	return New(Config{Topo: cluster.NewT1(n)})
}

func TestSingleTask(t *testing.T) {
	r := simpleRunner(2)
	job := &Job{Name: "one", Stages: []*Stage{{
		Name:  "s",
		Tasks: []*Task{{Name: "t", Machine: 0, Compute: 2.5, DiskRead: 0, DiskWrite: 0}},
	}}}
	m, err := r.Run(job)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(m.ResponseSeconds-2.5) > 1e-9 {
		t.Fatalf("response = %g, want 2.5", m.ResponseSeconds)
	}
	if m.TasksRun != 1 || m.NetworkBytes != 0 || m.DiskBytes != 0 {
		t.Fatalf("metrics %+v", m)
	}
}

func TestDiskTimeAccounted(t *testing.T) {
	r := simpleRunner(1)
	bw := r.cfg.Topo.DiskBandwidth()
	job := &Job{Stages: []*Stage{{Tasks: []*Task{{Machine: 0, DiskRead: int64(bw), DiskWrite: int64(bw)}}}}}
	m, err := r.Run(job)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(m.ResponseSeconds-2.0) > 1e-9 {
		t.Fatalf("response = %g, want 2 (1s read + 1s write)", m.ResponseSeconds)
	}
	if m.DiskBytes != int64(2*bw) {
		t.Fatalf("disk bytes = %d", m.DiskBytes)
	}
}

func TestParallelMachines(t *testing.T) {
	// Two equal tasks on two machines run concurrently.
	r := simpleRunner(2)
	job := &Job{Stages: []*Stage{{Tasks: []*Task{
		{Machine: 0, Compute: 3},
		{Machine: 1, Compute: 3},
	}}}}
	m, err := r.Run(job)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(m.ResponseSeconds-3) > 1e-9 {
		t.Fatalf("response = %g, want 3", m.ResponseSeconds)
	}
	if math.Abs(m.MachineSeconds-6) > 1e-9 {
		t.Fatalf("machine time = %g, want 6", m.MachineSeconds)
	}
}

func TestMachineSerializesTasks(t *testing.T) {
	// Two tasks pinned to one machine run back to back.
	r := simpleRunner(2)
	job := &Job{Stages: []*Stage{{Tasks: []*Task{
		{Machine: 0, Compute: 3},
		{Machine: 0, Compute: 3},
	}}}}
	m, err := r.Run(job)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(m.ResponseSeconds-6) > 1e-9 {
		t.Fatalf("response = %g, want 6", m.ResponseSeconds)
	}
}

func TestTransferTiming(t *testing.T) {
	// Task on machine 0 sends bytes to a stage-2 task on machine 1;
	// response = compute + transfer + compute.
	r := simpleRunner(2)
	bytes := int64(cluster.LinkBandwidth) // exactly 1 second on a T1 link
	job := &Job{Stages: []*Stage{
		{Tasks: []*Task{{Machine: 0, Compute: 1, Outputs: []Output{{DstTask: 0, Bytes: bytes}}}}},
		{Tasks: []*Task{{Machine: 1, Compute: 1, Kind: KindCombine}}},
	}}
	m, err := r.Run(job)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(m.ResponseSeconds-3) > 1e-9 {
		t.Fatalf("response = %g, want 3", m.ResponseSeconds)
	}
	if m.NetworkBytes != bytes {
		t.Fatalf("network bytes = %d, want %d", m.NetworkBytes, bytes)
	}
}

func TestIntraMachineTransferFree(t *testing.T) {
	r := simpleRunner(2)
	job := &Job{Stages: []*Stage{
		{Tasks: []*Task{{Machine: 0, Compute: 1, Outputs: []Output{{DstTask: 0, Bytes: 1 << 30}}}}},
		{Tasks: []*Task{{Machine: 0, Compute: 1}}},
	}}
	m, err := r.Run(job)
	if err != nil {
		t.Fatal(err)
	}
	if m.NetworkBytes != 0 {
		t.Fatalf("intra-machine transfer counted as network: %d", m.NetworkBytes)
	}
	if math.Abs(m.ResponseSeconds-2) > 1e-9 {
		t.Fatalf("response = %g, want 2", m.ResponseSeconds)
	}
}

func TestLinkSerialization(t *testing.T) {
	// Two producers on machine 0 and 1... use same link: two tasks on
	// machine 0 each send 1s worth of data to machine 1: the second
	// transfer waits for the first.
	r := simpleRunner(2)
	bytes := int64(cluster.LinkBandwidth)
	job := &Job{Stages: []*Stage{
		{Tasks: []*Task{
			{Machine: 0, Compute: 1, Outputs: []Output{{DstTask: 0, Bytes: bytes}}},
			{Machine: 0, Compute: 1, Outputs: []Output{{DstTask: 0, Bytes: bytes}}},
		}},
		{Tasks: []*Task{{Machine: 1, Compute: 0}}},
	}}
	m, err := r.Run(job)
	if err != nil {
		t.Fatal(err)
	}
	// Task A: 0..1, sends 1..2. Task B: 1..2, its transfer must wait for
	// the link until 2, finishing at 3.
	if math.Abs(m.ResponseSeconds-3) > 1e-9 {
		t.Fatalf("response = %g, want 3", m.ResponseSeconds)
	}
}

func TestSlowLinkSlowsTransfer(t *testing.T) {
	topo := cluster.NewT2(cluster.T2Config{Machines: 4, Pods: 2, Levels: 1})
	r := New(Config{Topo: topo})
	bytes := int64(cluster.LinkBandwidth) // 1s intra-pod, 32s cross-pod
	job := &Job{Stages: []*Stage{
		{Tasks: []*Task{{Machine: 0, Outputs: []Output{{DstTask: 0, Bytes: bytes}}}}},
		{Tasks: []*Task{{Machine: 2, Compute: 0}}},
	}}
	m, err := r.Run(job)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(m.ResponseSeconds-32) > 1e-6 {
		t.Fatalf("cross-pod response = %g, want 32", m.ResponseSeconds)
	}
}

func TestJobValidation(t *testing.T) {
	r := simpleRunner(2)
	bad := []*Job{
		{Stages: []*Stage{{Tasks: []*Task{{Machine: 9}}}}},
		{Stages: []*Stage{{Tasks: []*Task{{Machine: 0, Compute: -1}}}}},
		{Stages: []*Stage{{Tasks: []*Task{{Machine: 0, Outputs: []Output{{DstTask: 0, Bytes: 1}}}}}}},
		{Stages: []*Stage{
			{Tasks: []*Task{{Machine: 0, Outputs: []Output{{DstTask: 5, Bytes: 1}}}}},
			{Tasks: []*Task{{Machine: 0}}},
		}},
	}
	for i, job := range bad {
		if _, err := r.Run(job); err == nil {
			t.Errorf("job %d: expected validation error", i)
		}
	}
}

func TestRunnerAccumulatesAcrossJobs(t *testing.T) {
	r := simpleRunner(1)
	job := &Job{Stages: []*Stage{{Tasks: []*Task{{Machine: 0, Compute: 1}}}}}
	for i := 0; i < 3; i++ {
		if _, err := r.Run(job); err != nil {
			t.Fatal(err)
		}
	}
	if math.Abs(r.Metrics().ResponseSeconds-3) > 1e-9 {
		t.Fatalf("cumulative response = %g, want 3", r.Metrics().ResponseSeconds)
	}
	if r.Metrics().TasksRun != 3 {
		t.Fatalf("tasks = %d", r.Metrics().TasksRun)
	}
}

func failureFixture(t *testing.T) (*Runner, *Job) {
	t.Helper()
	topo := cluster.NewT1(4)
	pl := &partition.Placement{MachineOf: []cluster.MachineID{0, 1, 2, 3}}
	reps := storage.PlaceReplicas(pl, topo, 1)
	r := New(Config{
		Topo:              topo,
		Replicas:          reps,
		Faults:            &fault.Schedule{Kills: []fault.Kill{{Machine: 0, At: 5}}},
		HeartbeatInterval: 1,
	})
	tasks := make([]*Task, 4)
	for p := 0; p < 4; p++ {
		tasks[p] = &Task{
			Name: "work", Kind: KindTransfer,
			Part: partition.PartID(p), Machine: cluster.MachineID(p),
			Compute: 10,
		}
	}
	job := &Job{Name: "failjob", Stages: []*Stage{{Name: "only", Tasks: tasks}}}
	return r, job
}

func TestFailureRecovery(t *testing.T) {
	r, job := failureFixture(t)
	m, err := r.Run(job)
	if err != nil {
		t.Fatal(err)
	}
	if m.Recoveries != 1 {
		t.Fatalf("recoveries = %d, want 1", m.Recoveries)
	}
	// Machine 0 dies at t=5; its task restarts at t=6 on a replica that
	// is already busy until t=10, so the re-run spans 10..20.
	if math.Abs(m.ResponseSeconds-20) > 1e-9 {
		t.Fatalf("response = %g, want 20", m.ResponseSeconds)
	}
	// 5 task executions: 4 originals (one aborted, 3 useful) minus the
	// aborted one never completes; TasksRun counts completions = 4.
	if m.TasksRun != 4 {
		t.Fatalf("tasks run = %d, want 4", m.TasksRun)
	}
}

func TestFailureWithoutReplicasErrors(t *testing.T) {
	r := New(Config{Topo: cluster.NewT1(2), Faults: &fault.Schedule{Kills: []fault.Kill{{Machine: 0, At: 1}}}})
	job := &Job{Stages: []*Stage{{Tasks: []*Task{{Machine: 0, Compute: 5}}}}}
	if _, err := r.Run(job); err == nil {
		t.Fatal("expected error when failures configured without replicas")
	}
}

func TestCombineRecoveryRetransfersInputs(t *testing.T) {
	topo := cluster.NewT1(4)
	// Pin replicas so partition 1's failover target (machine 2) differs
	// from the producer's machine (0): the input re-transfer must cross
	// the network.
	reps := &storage.Replicas{Machines: [][]cluster.MachineID{
		{0, 3, 1}, {1, 2, 3}, {2, 3, 0}, {3, 0, 1},
	}}
	bytes := int64(cluster.LinkBandwidth)
	mkJob := func() *Job {
		return &Job{Stages: []*Stage{
			{Tasks: []*Task{
				{Name: "prod", Kind: KindTransfer, Part: 0, Machine: 0, Compute: 1,
					Outputs: []Output{{DstTask: 0, Bytes: bytes}}},
			}},
			{Tasks: []*Task{
				{Name: "cons", Kind: KindCombine, Part: 1, Machine: 1, Compute: 10},
			}},
		}}
	}
	// Baseline without failure.
	r0 := New(Config{Topo: topo, Replicas: reps})
	base, err := r0.Run(mkJob())
	if err != nil {
		t.Fatal(err)
	}
	// Kill machine 1 while the combine task runs (stage 2 starts at t=2).
	r1 := New(Config{Topo: topo, Replicas: reps, Faults: &fault.Schedule{Kills: []fault.Kill{{Machine: 1, At: 4}}}, HeartbeatInterval: 1})
	m, err := r1.Run(mkJob())
	if err != nil {
		t.Fatal(err)
	}
	if m.Recoveries != 1 {
		t.Fatalf("recoveries = %d", m.Recoveries)
	}
	// Inputs re-transferred: network bytes doubled.
	if m.NetworkBytes != 2*base.NetworkBytes {
		t.Fatalf("network = %d, want %d (inputs re-sent)", m.NetworkBytes, 2*base.NetworkBytes)
	}
	if m.ResponseSeconds <= base.ResponseSeconds {
		t.Fatalf("recovered run (%g) not slower than baseline (%g)", m.ResponseSeconds, base.ResponseSeconds)
	}
}

func TestFailureBeforeStageReassignsUpfront(t *testing.T) {
	topo := cluster.NewT1(3)
	pl := &partition.Placement{MachineOf: []cluster.MachineID{0, 1, 2}}
	reps := storage.PlaceReplicas(pl, topo, 3)
	r := New(Config{Topo: topo, Replicas: reps, Faults: &fault.Schedule{Kills: []fault.Kill{{Machine: 0, At: 0.5}}}})
	// Two sequential jobs; machine 0 dies during the first. The second
	// job's task pinned to machine 0 must be reassigned at stage start.
	j1 := &Job{Stages: []*Stage{{Tasks: []*Task{{Part: 1, Machine: 1, Compute: 2}}}}}
	j2 := &Job{Stages: []*Stage{{Tasks: []*Task{{Part: 0, Machine: 0, Compute: 2}}}}}
	if _, err := r.Run(j1); err != nil {
		t.Fatal(err)
	}
	m, err := r.Run(j2)
	if err != nil {
		t.Fatal(err)
	}
	if m.TasksRun != 1 {
		t.Fatalf("tasks run = %d", m.TasksRun)
	}
	// No recovery counted: reassignment happened before dispatch.
	if m.Recoveries != 0 {
		t.Fatalf("recoveries = %d, want 0", m.Recoveries)
	}
}

func TestDeterministicRuns(t *testing.T) {
	mk := func() (Metrics, error) {
		topo := cluster.NewT2(cluster.T2Config{Machines: 8, Pods: 2, Levels: 1})
		r := New(Config{Topo: topo})
		var stage1, stage2 []*Task
		for i := 0; i < 16; i++ {
			stage1 = append(stage1, &Task{
				Machine: cluster.MachineID(i % 8), Compute: float64(i%3) + 1,
				Outputs: []Output{{DstTask: i, Bytes: int64(i+1) * 1e6}},
			})
			stage2 = append(stage2, &Task{Machine: cluster.MachineID((i + 3) % 8), Compute: 1, Kind: KindCombine})
		}
		return r.Run(&Job{Stages: []*Stage{{Tasks: stage1}, {Tasks: stage2}}})
	}
	a, err := mk()
	if err != nil {
		t.Fatal(err)
	}
	b, err := mk()
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatalf("nondeterministic: %+v vs %+v", a, b)
	}
}

func TestMultipleFailures(t *testing.T) {
	topo := cluster.NewT1(4)
	pl := &partition.Placement{MachineOf: []cluster.MachineID{0, 1, 2, 3}}
	reps := storage.PlaceReplicas(pl, topo, 9)
	r := New(Config{
		Topo: topo, Replicas: reps,
		Faults:            &fault.Schedule{Kills: []fault.Kill{{Machine: 0, At: 2}, {Machine: 1, At: 4}}},
		HeartbeatInterval: 1,
	})
	tasks := make([]*Task, 4)
	for p := 0; p < 4; p++ {
		tasks[p] = &Task{Part: partition.PartID(p), Machine: cluster.MachineID(p), Compute: 10}
	}
	m, err := r.Run(&Job{Stages: []*Stage{{Tasks: tasks}}})
	if err != nil {
		t.Fatal(err)
	}
	if m.Recoveries < 2 {
		t.Fatalf("recoveries = %d, want >= 2", m.Recoveries)
	}
	if m.TasksRun != 4 {
		t.Fatalf("completions = %d, want 4", m.TasksRun)
	}
}

func TestAllReplicasDeadDeadlocks(t *testing.T) {
	topo := cluster.NewT1(2)
	reps := &storage.Replicas{Machines: [][]cluster.MachineID{{0, 1}}}
	r := New(Config{
		Topo: topo, Replicas: reps,
		Faults:            &fault.Schedule{Kills: []fault.Kill{{Machine: 0, At: 1}, {Machine: 1, At: 2}}},
		HeartbeatInterval: 0.5,
	})
	job := &Job{Stages: []*Stage{{Tasks: []*Task{{Part: 0, Machine: 0, Compute: 10}}}}}
	if _, err := r.Run(job); err == nil {
		t.Fatal("expected an error when every replica is dead")
	}
}
