package engine

import (
	"bytes"
	"math"
	"testing"

	"repro/internal/cluster"
	"repro/internal/fault"
	"repro/internal/partition"
	"repro/internal/storage"
	"repro/internal/trace"
)

// threeMachineReplicas is the replica layout the elastic tests share:
// partition p's primary is machine p, with one extra holder.
func threeMachineReplicas() *storage.Replicas {
	return &storage.Replicas{Machines: [][]cluster.MachineID{
		{0, 1}, {1, 2}, {2, 0},
	}}
}

// pinnedStage builds one stage with task i pinned to machine i, partition i.
func pinnedStage(name string, n int, compute float64) *Stage {
	tasks := make([]*Task, n)
	for i := 0; i < n; i++ {
		tasks[i] = &Task{Name: "t" + string(rune('0'+i)),
			Part: partition.PartID(i), Machine: cluster.MachineID(i), Compute: compute}
	}
	return &Stage{Name: name, Tasks: tasks}
}

func TestCleanDrainMigratesAndRetires(t *testing.T) {
	rec := trace.NewRecorder()
	bw := int64(cluster.LinkBandwidth)
	r := New(Config{
		Topo: cluster.NewT1(3), Replicas: threeMachineReplicas(), Trace: rec,
		Faults:    &fault.Schedule{Drains: []fault.MachineDrain{{Machine: 2, At: 0.5, Deadline: 10}}},
		PartBytes: []int64{0, 0, bw},
	})
	m, err := r.Run(&Job{Name: "drain", Stages: []*Stage{pinnedStage("s", 3, 2)}})
	if err != nil {
		t.Fatal(err)
	}
	// Tasks gate the stage at 2s; the migration (1s on the NIC, 0.5→1.5)
	// finishes inside it.
	if math.Abs(m.ResponseSeconds-2) > 1e-9 {
		t.Fatalf("response = %g, want 2", m.ResponseSeconds)
	}
	if m.Drains != 1 || m.Migrations != 1 || m.MigrationBytes != bw {
		t.Fatalf("drains/migrations/bytes = %d/%d/%d, want 1/1/%d",
			m.Drains, m.Migrations, m.MigrationBytes, bw)
	}
	// A clean drain is not a death: no checkpoint rollback trigger.
	if r.Deaths() != 0 {
		t.Fatalf("deaths = %d, want 0 (clean drain)", r.Deaths())
	}
	if st := r.machines[2].state; st != retired {
		t.Fatalf("machine 2 is %v, want retired", st)
	}
	c := countKinds(rec.Events())
	if c[trace.KindMachineDrain] != 1 || c[trace.KindPartitionMigrate] != 1 || c[trace.KindFailure] != 0 {
		t.Fatalf("drain/migrate/failure events = %d/%d/%d, want 1/1/0",
			c[trace.KindMachineDrain], c[trace.KindPartitionMigrate], c[trace.KindFailure])
	}
	for _, ev := range rec.Events() {
		if ev.Kind == trace.KindPartitionMigrate {
			if ev.Machine != 2 || ev.Dst != 0 || ev.Part != 2 {
				t.Fatalf("migration %d→%d part %d, want 2→0 part 2", ev.Machine, ev.Dst, ev.Part)
			}
		}
	}
	// After the drain, partition 2's tasks follow their new home (machine 0)
	// and nothing runs on the retired machine.
	before := rec.Len()
	if _, err := r.Run(&Job{Name: "after", Stages: []*Stage{pinnedStage("s", 3, 1)}}); err != nil {
		t.Fatal(err)
	}
	for _, ev := range rec.Events()[before:] {
		if ev.Kind == trace.KindTaskEnd && ev.Part == 2 && ev.Machine != 0 {
			t.Fatalf("migrated partition's task ran on machine %d, want 0", ev.Machine)
		}
		if ev.Kind == trace.KindTaskStart && ev.Machine == 2 {
			t.Fatal("retired machine accepted a task")
		}
	}
}

func TestDrainDeadlineExpiryDegradesToFailure(t *testing.T) {
	rec := trace.NewRecorder()
	bw := int64(cluster.LinkBandwidth)
	r := New(Config{
		Topo: cluster.NewT1(3), Replicas: threeMachineReplicas(), Trace: rec,
		Faults:    &fault.Schedule{Drains: []fault.MachineDrain{{Machine: 2, At: 0.5, Deadline: 1.0}}},
		PartBytes: []int64{0, 0, 2 * bw},
	})
	m, err := r.Run(&Job{Name: "expire", Stages: []*Stage{pinnedStage("s", 3, 3)}})
	if err != nil {
		t.Fatal(err)
	}
	// The 2s migration (0.5→2.5) cannot beat the 1.0 deadline: machine 2
	// dies at 1.0, its running task is lost and reruns on partition 2's
	// surviving replica (machine 0) after the heartbeat — queued behind
	// machine 0's own task, so it runs 3→6.
	if math.Abs(m.ResponseSeconds-6) > 1e-9 {
		t.Fatalf("response = %g, want 6", m.ResponseSeconds)
	}
	if st := r.machines[2].state; r.Deaths() != 1 || st != dead {
		t.Fatalf("deaths=%d, machine 2 is %v; want a real death", r.Deaths(), st)
	}
	// The aborted migration never commits.
	if m.Drains != 1 || m.Migrations != 0 || m.MigrationBytes != 0 {
		t.Fatalf("drains/migrations/bytes = %d/%d/%d, want 1/0/0",
			m.Drains, m.Migrations, m.MigrationBytes)
	}
	if m.Recoveries != 1 {
		t.Fatalf("recoveries = %d, want 1", m.Recoveries)
	}
	// Causal edge: the failure is caused by the machine-drain event.
	drainSeq := trace.None
	for _, ev := range rec.Events() {
		if ev.Kind == trace.KindMachineDrain {
			drainSeq = ev.Seq
		}
		if ev.Kind == trace.KindFailure {
			if ev.Cause != drainSeq || drainSeq == trace.None {
				t.Fatalf("failure cause = %d, want the drain's seq %d", ev.Cause, drainSeq)
			}
		}
	}
}

func TestJoinedMachineReceivesMigration(t *testing.T) {
	rec := trace.NewRecorder()
	bw := int64(cluster.LinkBandwidth)
	reps := &storage.Replicas{Machines: [][]cluster.MachineID{
		{0, 2}, {1, 3}, {2, 0},
	}}
	r := New(Config{
		Topo: cluster.NewT1(4), Replicas: reps, Trace: rec,
		Faults: &fault.Schedule{
			// The joining spot instance has half-rate NICs, so the 1s-at-full-
			// rate migration takes 2s.
			Joins:  []fault.MachineJoin{{Machine: 3, At: 0.25, NICs: cluster.LinkBandwidth / 2}},
			Drains: []fault.MachineDrain{{Machine: 1, At: 0.5, Deadline: 10}},
		},
		PartBytes: []int64{0, bw, 0},
	})
	m, err := r.Run(&Job{Name: "join", Stages: []*Stage{pinnedStage("s", 3, 2)}})
	if err != nil {
		t.Fatal(err)
	}
	if m.Joins != 1 || m.Drains != 1 || m.Migrations != 1 {
		t.Fatalf("joins/drains/migrations = %d/%d/%d, want 1/1/1", m.Joins, m.Drains, m.Migrations)
	}
	if st1, st3 := r.machines[1].state, r.machines[3].state; st1 != retired || st3 != live {
		t.Fatalf("machine 1 is %v, machine 3 is %v; want retired and live", st1, st3)
	}
	// Partition 1 migrates to its replica holder machine 3 — live since its
	// join — at the joiner's NIC rate: 2s on the wire (0.5→2.5), which gates
	// the stage past the 2s tasks.
	found := false
	for _, ev := range rec.Events() {
		if ev.Kind != trace.KindPartitionMigrate {
			continue
		}
		found = true
		if ev.Machine != 1 || ev.Dst != 3 || ev.Part != 1 {
			t.Fatalf("migration %d→%d part %d, want 1→3 part 1", ev.Machine, ev.Dst, ev.Part)
		}
		if math.Abs((ev.End-ev.Start)-2) > 1e-9 {
			t.Fatalf("migration wire time = %g, want 2 (half-rate NIC)", ev.End-ev.Start)
		}
	}
	if !found {
		t.Fatal("no partition-migrate event")
	}
	if math.Abs(m.ResponseSeconds-2.5) > 1e-9 {
		t.Fatalf("response = %g, want 2.5", m.ResponseSeconds)
	}
}

func TestDormantMachineExcludedUntilJoin(t *testing.T) {
	rec := trace.NewRecorder()
	reps := &storage.Replicas{Machines: [][]cluster.MachineID{{0, 1}, {1, 0}}}
	r := New(Config{
		Topo: cluster.NewT1(3), Replicas: reps, Trace: rec,
		Faults: &fault.Schedule{Joins: []fault.MachineJoin{{Machine: 2, At: 5}}},
	})
	// A task pinned to the dormant machine fails over to a live replica
	// instead of running on provisioned-but-absent hardware.
	job := &Job{Name: "dormant", Stages: []*Stage{{Name: "s", Tasks: []*Task{
		{Name: "t", Part: 0, Machine: 2, Compute: 1},
	}}}}
	if _, err := r.Run(job); err != nil {
		t.Fatal(err)
	}
	for _, ev := range rec.Events() {
		if ev.Kind == trace.KindTaskEnd && ev.Machine == 2 {
			t.Fatal("dormant machine ran a task before its join")
		}
	}
	if st := r.machines[2].state; st != dormant {
		t.Fatalf("machine 2 is %v, want dormant (join at t=5, job ended at 1)", st)
	}
}

// TestElasticRunsAreDeterministic pins the tentpole acceptance: the same
// schedule — joins, drains (one clean, one expiring), kills, migrations —
// yields bit-identical metrics and byte-identical trace streams at worker
// counts 1, 4 and 8.
func TestElasticRunsAreDeterministic(t *testing.T) {
	bw := int64(cluster.LinkBandwidth)
	sched := &fault.Schedule{
		Joins: []fault.MachineJoin{
			{Machine: 4, At: 0.25, NICs: cluster.LinkBandwidth / 2},
			{Machine: 5, At: 0.75},
		},
		Drains: []fault.MachineDrain{
			{Machine: 1, At: 1.0, Deadline: 20},   // clean: migrates out
			{Machine: 3, At: 0.5, Deadline: 0.75}, // expires: dies
		},
		Slowdowns: []fault.Slowdown{{Machine: 2, From: 0, Until: 1, Factor: 3}},
	}
	mk := func(workers int) (Metrics, []byte, error) {
		topo := cluster.NewT1(6)
		// Every partition keeps a replica on machine 0 (never drained or
		// killed here), so failover always has somewhere to land.
		reps := &storage.Replicas{Machines: [][]cluster.MachineID{
			{0, 1, 2}, {1, 4, 0}, {2, 3, 0}, {3, 0, 1}, {0, 2, 3}, {1, 2, 0}, {2, 0, 1}, {3, 1, 0},
		}}
		rec := trace.NewRecorder()
		r := New(Config{
			Topo: topo, Replicas: reps, Faults: sched, Workers: workers, Trace: rec,
			PartBytes: []int64{bw / 2, bw, bw / 4, bw, bw / 2, bw / 8, bw, bw / 2},
		})
		var s1, s2 []*Task
		for i := 0; i < 8; i++ {
			s1 = append(s1, &Task{Name: "a", Part: partition.PartID(i),
				Machine: cluster.MachineID(i % 4), Compute: float64(i%3) + 1,
				Outputs: []Output{{DstTask: (i + 1) % 8, Bytes: int64(i+1) * 1e7}}})
		}
		for i := 0; i < 8; i++ {
			s2 = append(s2, &Task{Name: "b", Part: partition.PartID(i),
				Machine: cluster.MachineID(i % 4), Compute: 1, Kind: KindCombine})
		}
		m, err := r.Run(&Job{Name: "churn", Stages: []*Stage{{Name: "s1", Tasks: s1}, {Name: "s2", Tasks: s2}}})
		if err != nil {
			return Metrics{}, nil, err
		}
		var buf bytes.Buffer
		if err := trace.WriteEvents(&buf, nil, rec.Events()); err != nil {
			return Metrics{}, nil, err
		}
		return m, buf.Bytes(), nil
	}
	baseM, baseT, err := mk(1)
	if err != nil {
		t.Fatal(err)
	}
	if baseM.Joins != 2 || baseM.Drains != 2 {
		t.Fatalf("joins/drains = %d/%d, want 2/2", baseM.Joins, baseM.Drains)
	}
	if baseM.Migrations == 0 {
		t.Fatal("schedule produced no migrations; test is vacuous")
	}
	for _, w := range []int{4, 8} {
		m, tr, err := mk(w)
		if err != nil {
			t.Fatal(err)
		}
		if m != baseM {
			t.Fatalf("metrics diverge at workers=%d:\n%+v\n%+v", w, baseM, m)
		}
		if !bytes.Equal(tr, baseT) {
			t.Fatalf("trace stream diverges at workers=%d (%d vs %d bytes)", w, len(baseT), len(tr))
		}
	}
}

// TestElasticChurnSoak replays a generated chaos schedule — kills, drops,
// slowdowns, joins and drains together — across worker counts and seeds.
// Run under -race this doubles as the data-race gate for the elastic paths.
func TestElasticChurnSoak(t *testing.T) {
	seeds := []int64{1, 2, 3, 4, 5}
	if testing.Short() {
		seeds = seeds[:2]
	}
	for _, seed := range seeds {
		sched, kills := fault.Generate(fault.GenConfig{
			Machines: 6, Horizon: 10,
			Degrades: 1, Drops: 1, Slowdowns: 1, Kills: 1,
			Joins: 2, Drains: 2, Seed: seed,
		})
		sched.Kills = kills
		total := 6 + 2 // base machines + join targets
		if err := sched.Validate(total); err != nil {
			t.Fatalf("seed %d: generated schedule invalid: %v", seed, err)
		}
		topo := cluster.NewT1(6).Expand(2)
		parts := 8
		// Machine 0 is never killed or drained by the generator, so keeping
		// a replica of every partition there means failover never dead-ends
		// whatever the seed draws.
		reps := &storage.Replicas{Machines: make([][]cluster.MachineID, parts)}
		for p := 0; p < parts; p++ {
			ms := []cluster.MachineID{cluster.MachineID(p % 6), cluster.MachineID((p + 1) % 6)}
			if ms[0] != 0 && ms[1] != 0 {
				ms = append(ms, 0)
			}
			reps.Machines[p] = ms
		}
		pb := make([]int64, parts)
		for p := range pb {
			pb[p] = int64(p+1) * int64(cluster.LinkBandwidth) / 16
		}
		mk := func(workers int) (Metrics, error) {
			r := New(Config{
				Topo: topo, Replicas: reps, Faults: sched, Workers: workers, PartBytes: pb,
			})
			var m Metrics
			for it := 0; it < 3; it++ {
				var s1, s2 []*Task
				for i := 0; i < parts; i++ {
					s1 = append(s1, &Task{Name: "a", Part: partition.PartID(i),
						Machine: cluster.MachineID(i % 6), Compute: 0.5 + float64(i%4)*0.5,
						Outputs: []Output{{DstTask: (i + 1) % parts, Bytes: int64(i+1) * 5e6}}})
				}
				for i := 0; i < parts; i++ {
					s2 = append(s2, &Task{Name: "b", Part: partition.PartID(i),
						Machine: cluster.MachineID(i % 6), Compute: 0.5, Kind: KindCombine})
				}
				jm, err := r.Run(&Job{Name: "soak", Stages: []*Stage{{Name: "s1", Tasks: s1}, {Name: "s2", Tasks: s2}}})
				if err != nil {
					return Metrics{}, err
				}
				m.Add(jm)
			}
			return m, nil
		}
		base, err := mk(1)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		got, err := mk(8)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		// ResponseSeconds is per-job and Add sums it; both runs sum the same
		// three jobs, so the whole struct must match.
		if base != got {
			t.Fatalf("seed %d: churn nondeterministic across workers:\n%+v\n%+v", seed, base, got)
		}
	}
}

// TestDrainWithoutReplicasRejected: migration needs partition homes.
func TestDrainWithoutReplicasRejected(t *testing.T) {
	r := New(Config{
		Topo:   cluster.NewT1(2),
		Faults: &fault.Schedule{Drains: []fault.MachineDrain{{Machine: 1, At: 1, Deadline: 2}}},
	})
	_, err := r.Run(&Job{Stages: []*Stage{{Tasks: []*Task{{Machine: 0, Compute: 1}}}}})
	if err == nil {
		t.Fatal("drain without replicas should be rejected")
	}
}

// TestMachineLifecycle walks a machine through each transition of its state
// (see state): every case runs pinned three-task jobs on the shared replica
// layout and checks the final state of the machine under test, the death
// count multi-iteration drivers roll back on, and the events that tell the
// transitions apart.
func TestMachineLifecycle(t *testing.T) {
	bw := int64(cluster.LinkBandwidth)
	cases := []struct {
		name      string
		machines  int
		sched     fault.Schedule
		partBytes []int64
		jobs      int
		compute   float64
		machine   cluster.MachineID
		want      state
		deaths    int
		check     func(t *testing.T, m Metrics, c map[trace.EventKind]int, evs []trace.Event)
	}{
		{name: "join", machines: 4, jobs: 1, compute: 2, machine: 3, want: live,
			sched: fault.Schedule{Joins: []fault.MachineJoin{{Machine: 3, At: 1}}},
			check: func(t *testing.T, m Metrics, c map[trace.EventKind]int, _ []trace.Event) {
				if m.Joins != 1 || c[trace.KindMachineJoin] != 1 {
					t.Errorf("joins = %d, join events = %d; want 1 and 1", m.Joins, c[trace.KindMachineJoin])
				}
			}},
		{name: "drain with nothing to move retires at once", machines: 4, jobs: 1, compute: 2, machine: 3, want: retired,
			sched: fault.Schedule{Drains: []fault.MachineDrain{{Machine: 3, At: 0.5, Deadline: 10}}},
			check: func(t *testing.T, m Metrics, c map[trace.EventKind]int, _ []trace.Event) {
				if m.Drains != 1 || m.Migrations != 0 || c[trace.KindPartitionMigrate] != 0 {
					t.Errorf("drains/migrations = %d/%d, want 1/0", m.Drains, m.Migrations)
				}
			}},
		{name: "migration past its deadline ends dead", machines: 3, jobs: 1, compute: 3, machine: 2, want: dead, deaths: 1,
			sched:     fault.Schedule{Drains: []fault.MachineDrain{{Machine: 2, At: 0.5, Deadline: 1}}},
			partBytes: []int64{0, 0, 2 * bw},
			check: func(t *testing.T, m Metrics, c map[trace.EventKind]int, _ []trace.Event) {
				if m.Migrations != 0 || c[trace.KindFailure] != 1 {
					t.Errorf("migrations = %d, failures = %d; want 0 and 1", m.Migrations, c[trace.KindFailure])
				}
			}},
		// The migration would land at 2.5 and the deadline fires at 3, both
		// inside the stage: a dead machine ignores them.
		{name: "kill mid-drain", machines: 3, jobs: 1, compute: 5, machine: 2, want: dead, deaths: 1,
			sched: fault.Schedule{
				Drains: []fault.MachineDrain{{Machine: 2, At: 0.5, Deadline: 3}},
				Kills:  []fault.Kill{{Machine: 2, At: 1}},
			},
			partBytes: []int64{0, 0, 2 * bw},
			check: func(t *testing.T, m Metrics, c map[trace.EventKind]int, _ []trace.Event) {
				if m.Migrations != 0 || m.MigrationBytes != 0 || c[trace.KindFailure] != 1 {
					t.Errorf("migrations/bytes/failures = %d/%d/%d, want 0/0/1",
						m.Migrations, m.MigrationBytes, c[trace.KindFailure])
				}
			}},
		// Retiring leaves the queued and running tasks to finish; a kill
		// then loses the running one.
		{name: "kill after retirement while a task runs", machines: 3, jobs: 1, compute: 5, machine: 2, want: dead, deaths: 1,
			sched: fault.Schedule{
				Drains: []fault.MachineDrain{{Machine: 2, At: 0.5, Deadline: 10}},
				Kills:  []fault.Kill{{Machine: 2, At: 2}},
			},
			check: func(t *testing.T, m Metrics, c map[trace.EventKind]int, _ []trace.Event) {
				if m.Migrations != 1 || c[trace.KindTaskLost] != 1 || m.Recoveries != 1 {
					t.Errorf("migrations/lost/recoveries = %d/%d/%d, want 1/1/1",
						m.Migrations, c[trace.KindTaskLost], m.Recoveries)
				}
			}},
		// fault.Validate refuses this plan; the engine still keeps the
		// drain pending until the machine is live, and the next job arms it.
		{name: "drain of a dormant machine waits for its join", machines: 4, jobs: 2, compute: 2, machine: 3, want: retired,
			sched: fault.Schedule{
				Joins:  []fault.MachineJoin{{Machine: 3, At: 1}},
				Drains: []fault.MachineDrain{{Machine: 3, At: 0.5, Deadline: 10}},
			},
			check: func(t *testing.T, m Metrics, _ map[trace.EventKind]int, evs []trace.Event) {
				joinAt, drainAt := -1.0, -1.0
				for _, ev := range evs {
					switch ev.Kind {
					case trace.KindMachineJoin:
						joinAt = ev.Time
					case trace.KindMachineDrain:
						drainAt = ev.Time
					}
				}
				if m.Joins != 1 || m.Drains != 1 || joinAt != 1 || drainAt != 2 {
					t.Errorf("joins/drains = %d/%d at %g/%g, want 1/1 at 1/2", m.Joins, m.Drains, joinAt, drainAt)
				}
			}},
		{name: "equal-time drains arm in machine order", machines: 3, jobs: 1, compute: 2, machine: 2, want: retired,
			sched: fault.Schedule{Drains: []fault.MachineDrain{
				{Machine: 2, At: 0.5, Deadline: 10}, {Machine: 1, At: 0.5, Deadline: 10},
			}},
			check: func(t *testing.T, _ Metrics, _ map[trace.EventKind]int, evs []trace.Event) {
				var order []int
				for _, ev := range evs {
					if ev.Kind == trace.KindMachineDrain {
						order = append(order, ev.Machine)
					}
				}
				if len(order) != 2 || order[0] != 1 || order[1] != 2 {
					t.Errorf("drain events on machines %v, want [1 2]", order)
				}
			}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rec := trace.NewRecorder()
			r := New(Config{
				Topo: cluster.NewT1(tc.machines), Replicas: threeMachineReplicas(), Trace: rec,
				Faults: &tc.sched, PartBytes: tc.partBytes,
			})
			var m Metrics
			for range tc.jobs {
				jm, err := r.Run(&Job{Name: "life", Stages: []*Stage{pinnedStage("s", 3, tc.compute)}})
				if err != nil {
					t.Fatal(err)
				}
				m.Add(jm)
			}
			if st := r.machines[tc.machine].state; st != tc.want || r.Deaths() != tc.deaths {
				t.Errorf("machine %d is %v with %d deaths, want %v with %d", tc.machine, st, r.Deaths(), tc.want, tc.deaths)
			}
			tc.check(t, m, countKinds(rec.Events()), rec.Events())
		})
	}
}
