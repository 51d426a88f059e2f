package analyze

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/cluster"
	"repro/internal/engine"
	"repro/internal/fault"
	"repro/internal/partition"
	"repro/internal/storage"
	"repro/internal/trace"
)

// scaleWindow emits one job window: begin at t0, end at t0+1, optionally
// with a transfer keeping the 0→1 link busy for busy seconds.
func scaleWindow(rec *trace.Recorder, name string, t0, busy float64) {
	b := rec.Emit(trace.Event{Kind: trace.KindJobBegin, Job: name, Cause: trace.None,
		Machine: trace.None, Dst: trace.None, Part: trace.None, Time: t0})
	if busy > 0 {
		rec.Emit(trace.Event{Kind: trace.KindTransfer, Job: name, Cause: b,
			Machine: 0, Dst: 1, Part: trace.None, Bytes: int64(busy * cluster.LinkBandwidth),
			Time: t0, Start: t0, End: t0 + busy})
	}
	rec.Emit(trace.Event{Kind: trace.KindJobEnd, Job: name, Cause: b,
		Machine: trace.None, Dst: trace.None, Part: trace.None, Time: t0 + 1})
}

func TestAutoscalePolicy(t *testing.T) {
	// On a two-machine cluster the 0→1 link is the level-0 cut. Two
	// saturated windows (util 0.9) trigger one join; two idle windows
	// afterwards trigger one drain of machine 1 (machine 0 is never
	// drained).
	rec := trace.NewRecorder()
	scaleWindow(rec, "w1", 0, 0.9)
	scaleWindow(rec, "w2", 1, 0.9)
	scaleWindow(rec, "w3", 2, 0)
	scaleWindow(rec, "w4", 3, 0)
	topo := cluster.NewT1(2)
	plan, err := Autoscale(rec.Events(), topo)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Windows) != 4 {
		t.Fatalf("windows = %d, want 4", len(plan.Windows))
	}
	if !plan.Windows[0].Saturated || !plan.Windows[1].Saturated {
		t.Fatalf("saturated flags = %+v", plan.Windows[:2])
	}
	if !plan.Windows[2].Idle || !plan.Windows[3].Idle {
		t.Fatalf("idle flags = %+v", plan.Windows[2:])
	}
	if math.Abs(plan.Windows[0].MaxLevel0Util-0.9) > 1e-9 {
		t.Fatalf("util = %g, want 0.9", plan.Windows[0].MaxLevel0Util)
	}
	if len(plan.Joins) != 1 || int(plan.Joins[0].Machine) != 2 || plan.Joins[0].At != 2 {
		t.Fatalf("joins = %+v, want machine 2 at t=2", plan.Joins)
	}
	if len(plan.Drains) != 1 || plan.Drains[0].Machine != 1 || plan.Drains[0].At != 4 {
		t.Fatalf("drains = %+v, want machine 1 at t=4", plan.Drains)
	}
	// Default slack: twice the triggering window's length.
	if math.Abs(plan.Drains[0].Deadline-6) > 1e-9 {
		t.Fatalf("deadline = %g, want 6", plan.Drains[0].Deadline)
	}
	// The plan converts to a replayable schedule that validates against the
	// expanded topology.
	s := plan.Schedule()
	if err := s.Validate(topo.NumMachines() + len(plan.Joins)); err != nil {
		t.Fatalf("plan schedule invalid: %v", err)
	}
	if len(s.Joins) != 1 || len(s.Drains) != 1 {
		t.Fatalf("plan schedule = %+v", s)
	}
	// No topology, no plan.
	if _, err := Autoscale(rec.Events(), nil); err == nil {
		t.Fatal("nil topology should be rejected")
	}
}

func TestAutoscaleQuietTraceRecommendsNothing(t *testing.T) {
	rec := trace.NewRecorder()
	scaleWindow(rec, "w1", 0, 0.5) // between the thresholds
	scaleWindow(rec, "w2", 1, 0.9) // saturated once — below K
	plan, err := Autoscale(rec.Events(), cluster.NewT1(2))
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Joins) != 0 || len(plan.Drains) != 0 {
		t.Fatalf("plan = %+v, want no recommendations", plan)
	}
}

// elasticRun executes a drain-gated workload: the joining spot instance's
// half-rate NIC makes the live migration the last event of the stage, so the
// critical path must pass through it and the migration category gets blame.
func elasticRun(t *testing.T, workers int) ([]trace.Event, *cluster.Topology) {
	t.Helper()
	topo := cluster.NewT1(4)
	reps := &storage.Replicas{Machines: [][]cluster.MachineID{
		{0, 2}, {1, 3}, {2, 0},
	}}
	rec := trace.NewRecorder()
	bw := int64(cluster.LinkBandwidth)
	r := engine.New(engine.Config{
		Topo: topo, Replicas: reps, Trace: rec, Workers: workers,
		Faults: &fault.Schedule{
			Joins:  []fault.MachineJoin{{Machine: 3, At: 0.25, NICs: cluster.LinkBandwidth / 2}},
			Drains: []fault.MachineDrain{{Machine: 1, At: 0.5, Deadline: 10}},
		},
		PartBytes: []int64{0, bw, 0},
	})
	tasks := make([]*engine.Task, 3)
	for i := range tasks {
		tasks[i] = &engine.Task{Name: "t" + string(rune('0'+i)),
			Part: partition.PartID(i), Machine: cluster.MachineID(i), Compute: 2}
	}
	job := &engine.Job{Name: "elastic", Stages: []*engine.Stage{{Name: "work", Tasks: tasks}}}
	if _, err := r.Run(job); err != nil {
		t.Fatal(err)
	}
	return rec.Events(), topo
}

// TestMigrationBlameSumsToMakespan: with a drain's migration gating the
// stage, the analyzer attributes real seconds to the migration category and
// the blame categories still partition 100% of the makespan.
func TestMigrationBlameSumsToMakespan(t *testing.T) {
	events, topo := elasticRun(t, 1)
	r, err := Analyze(events, topo)
	if err != nil {
		t.Fatal(err)
	}
	sum := 0.0
	for _, cat := range Categories {
		v, ok := r.Blame[cat]
		if !ok {
			t.Fatalf("category %s missing from blame map", cat)
		}
		if v < 0 {
			t.Fatalf("negative blame %s=%v", cat, v)
		}
		sum += v
	}
	if math.Abs(sum-r.Makespan) > 1e-9*math.Max(1, r.Makespan) {
		t.Fatalf("blame sums to %v, makespan %v", sum, r.Makespan)
	}
	if r.Blame[CatMigration] <= 0 {
		t.Fatalf("migration got no blame: %+v", r.Blame)
	}
}

// TestGoldenElasticReport pins the exact surfer-analyze report of the
// elastic workload — the migration blame row included (-update regenerates).
func TestGoldenElasticReport(t *testing.T) {
	events, topo := elasticRun(t, 1)
	r, err := Analyze(events, topo)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteText(&buf, r); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "critical_path_elastic.golden")
	if *update {
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("elastic report drifted from %s:\n--- got ---\n%s\n--- want ---\n%s",
			golden, buf.Bytes(), want)
	}
	// And it is byte-identical across worker counts.
	for _, workers := range []int{4, 8} {
		ev, tp := elasticRun(t, workers)
		rn, err := Analyze(ev, tp)
		if err != nil {
			t.Fatal(err)
		}
		var b2 bytes.Buffer
		if err := WriteText(&b2, rn); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf.Bytes(), b2.Bytes()) {
			t.Fatalf("elastic report with Workers=%d differs from Workers=1", workers)
		}
	}
}
