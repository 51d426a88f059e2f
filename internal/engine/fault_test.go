package engine

import (
	"math"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/fault"
	"repro/internal/partition"
	"repro/internal/storage"
)

// transferJob is a two-stage job whose single output transfer takes exactly
// one second on a healthy T1 link.
func transferJob() *Job {
	return &Job{Name: "xfer", Stages: []*Stage{
		{Name: "s1", Tasks: []*Task{{Name: "p", Machine: 0, Compute: 1,
			Outputs: []Output{{DstTask: 0, Bytes: int64(cluster.LinkBandwidth)}}}}},
		{Name: "s2", Tasks: []*Task{{Name: "c", Machine: 1, Compute: 1, Kind: KindCombine}}},
	}}
}

func TestDegradedLinkSlowsTransfer(t *testing.T) {
	sched := &fault.Schedule{Links: []fault.LinkFault{
		{Src: 0, Dst: 1, From: 0, Until: 10, Factor: 4},
	}}
	r := New(Config{Topo: cluster.NewT1(2), Faults: sched})
	m, err := r.Run(transferJob())
	if err != nil {
		t.Fatal(err)
	}
	// Compute 1s, transfer at quarter rate 4s, compute 1s.
	if math.Abs(m.ResponseSeconds-6) > 1e-9 {
		t.Fatalf("response = %g, want 6", m.ResponseSeconds)
	}
	if m.TransferDrops != 0 || m.TransferRetries != 0 {
		t.Fatalf("degradation should not drop: %+v", m)
	}
}

func TestDroppedTransferRetriesWithBackoff(t *testing.T) {
	sched := &fault.Schedule{Drops: []fault.LinkFault{
		{Src: 0, Dst: 1, From: 0, Until: 3},
	}}
	r := New(Config{Topo: cluster.NewT1(2), Faults: sched})
	m, err := r.Run(transferJob())
	if err != nil {
		t.Fatal(err)
	}
	// Attempt 1 starts at 1, times out at 2, retries at 2.25 (still in the
	// drop window), times out at 3.25, retries at 3.75 (window closed) and
	// delivers by 4.75; stage 2 computes 1s more.
	if math.Abs(m.ResponseSeconds-5.75) > 1e-9 {
		t.Fatalf("response = %g, want 5.75", m.ResponseSeconds)
	}
	if m.TransferDrops != 2 || m.TransferRetries != 2 {
		t.Fatalf("drops/retries = %d/%d, want 2/2", m.TransferDrops, m.TransferRetries)
	}
	// Only the delivered attempt counts as network I/O.
	if m.NetworkBytes != int64(cluster.LinkBandwidth) {
		t.Fatalf("network bytes = %d, want %d", m.NetworkBytes, int64(cluster.LinkBandwidth))
	}
}

func TestRetryBudgetExhaustionFailsRun(t *testing.T) {
	sched := &fault.Schedule{Drops: []fault.LinkFault{
		{Src: 0, Dst: 1, From: 0, Until: 100},
	}}
	r := New(Config{
		Topo: cluster.NewT1(2), Faults: sched,
		Retry: fault.RetryPolicy{MaxAttempts: 2},
	})
	_, err := r.Run(transferJob())
	if err == nil || !strings.Contains(err.Error(), "retry budget exhausted") {
		t.Fatalf("err = %v, want retry budget exhaustion", err)
	}
}

func TestSlowdownStretchesTasks(t *testing.T) {
	sched := &fault.Schedule{Slowdowns: []fault.Slowdown{
		{Machine: 0, From: 0, Until: 0.5, Factor: 3},
	}}
	r := New(Config{Topo: cluster.NewT1(1), Faults: sched})
	job := &Job{Stages: []*Stage{{Tasks: []*Task{{Machine: 0, Compute: 2}}}}}
	m, err := r.Run(job)
	if err != nil {
		t.Fatal(err)
	}
	// The task starts inside the slowdown window, so its whole duration is
	// multiplied even though the window closes at 0.5.
	if math.Abs(m.ResponseSeconds-6) > 1e-9 {
		t.Fatalf("response = %g, want 6", m.ResponseSeconds)
	}
}

func TestSpeculationRescuesStraggler(t *testing.T) {
	topo := cluster.NewT1(4)
	reps := &storage.Replicas{Machines: [][]cluster.MachineID{
		{0, 1}, {1, 2}, {2, 3}, {3, 0},
	}}
	sched := &fault.Schedule{Slowdowns: []fault.Slowdown{
		{Machine: 3, From: 0, Until: 0.5, Factor: 10},
	}}
	mkJob := func() *Job {
		tasks := make([]*Task, 4)
		for p := 0; p < 4; p++ {
			tasks[p] = &Task{Name: "t" + string(rune('0'+p)),
				Part: partition.PartID(p), Machine: cluster.MachineID(p), Compute: 1}
		}
		return &Job{Name: "spec", Stages: []*Stage{{Name: "s", Tasks: tasks}}}
	}
	// Without speculation the straggler gates the stage at 10s.
	r0 := New(Config{Topo: topo, Replicas: reps, Faults: sched})
	base, err := r0.Run(mkJob())
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(base.ResponseSeconds-10) > 1e-9 {
		t.Fatalf("baseline response = %g, want 10", base.ResponseSeconds)
	}
	// With speculation a backup launches on partition 3's other replica
	// holder (machine 0) once the median is trusted, and commits first.
	r1 := New(Config{Topo: topo, Replicas: reps, Faults: sched,
		Speculate: true})
	m, err := r1.Run(mkJob())
	if err != nil {
		t.Fatal(err)
	}
	if m.Speculations != 1 {
		t.Fatalf("speculations = %d, want 1", m.Speculations)
	}
	// Backup launches at t=1 on machine 0 and finishes at t=2.
	if math.Abs(m.ResponseSeconds-2) > 1e-9 {
		t.Fatalf("speculative response = %g, want 2", m.ResponseSeconds)
	}
	if m.ResponseSeconds >= base.ResponseSeconds {
		t.Fatalf("speculation did not help: %g vs %g", m.ResponseSeconds, base.ResponseSeconds)
	}
}

func TestIsStraggler(t *testing.T) {
	if isStraggler(10, 2, 1, 10) {
		t.Error("speculated with only 10% of the stage complete")
	}
	if !isStraggler(10, 2, 6, 10) {
		t.Error("missed a 5x straggler with 60% complete")
	}
	if isStraggler(3, 2, 6, 10) {
		t.Error("speculated on a task within the threshold")
	}
}

func TestFaultyRunsAreDeterministic(t *testing.T) {
	sched := &fault.Schedule{
		Links:     []fault.LinkFault{{Src: 2, Dst: 3, From: 0, Until: 5, Factor: 8}},
		Drops:     []fault.LinkFault{{Src: 0, Dst: 1, From: 0.5, Until: 2.5}},
		Slowdowns: []fault.Slowdown{{Machine: 2, From: 0, Until: 1, Factor: 4}},
	}
	mk := func(workers int) (Metrics, error) {
		topo := cluster.NewT1(4)
		reps := &storage.Replicas{Machines: [][]cluster.MachineID{
			{0, 1}, {1, 2}, {2, 3}, {3, 0},
		}}
		r := New(Config{Topo: topo, Replicas: reps, Faults: sched, Workers: workers,
			Speculate: true})
		var s1, s2 []*Task
		for i := 0; i < 8; i++ {
			s1 = append(s1, &Task{Name: "a", Part: partition.PartID(i % 4),
				Machine: cluster.MachineID(i % 4), Compute: float64(i%3) + 1,
				Outputs: []Output{{DstTask: (i + 1) % 4, Bytes: int64(i+1) * 1e7}}})
		}
		for i := 0; i < 4; i++ {
			s2 = append(s2, &Task{Name: "b", Part: partition.PartID(i),
				Machine: cluster.MachineID(i), Compute: 1, Kind: KindCombine})
		}
		return r.Run(&Job{Stages: []*Stage{{Tasks: s1}, {Tasks: s2}}})
	}
	a, err := mk(1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := mk(8)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatalf("fault replay nondeterministic:\n%+v\n%+v", a, b)
	}
	if a.TransferDrops == 0 {
		t.Fatal("schedule injected no drops; test is vacuous")
	}
}

func TestValidateKills(t *testing.T) {
	reps := &storage.Replicas{Machines: [][]cluster.MachineID{
		{0, 1}, {1, 2}, {2, 3}, {3, 0},
	}}
	cases := []struct {
		name  string
		kills []fault.Kill
		reps  *storage.Replicas
		want  string // substring of the error, "" = valid
	}{
		{"empty plan", nil, nil, ""},
		{"valid single kill", []fault.Kill{{Machine: 2, At: 5}}, reps, ""},
		{"no replicas", []fault.Kill{{Machine: 0, At: 1}}, nil, "no replicas"},
		{"kills every replica", []fault.Kill{{Machine: 0, At: 1}, {Machine: 1, At: 2}}, reps, "every replica of partition 0"},
	}
	for _, tc := range cases {
		err := ValidateKills(&fault.Schedule{Kills: tc.kills}, tc.reps)
		if tc.want == "" {
			if err != nil {
				t.Errorf("%s: unexpected error %v", tc.name, err)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want substring %q", tc.name, err, tc.want)
		}
	}
	if err := ValidateKills(nil, nil); err != nil {
		t.Errorf("nil schedule: %v", err)
	}
}
