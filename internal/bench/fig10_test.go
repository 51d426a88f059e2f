package bench

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/engine"
	"repro/internal/fault"
	"repro/internal/trace"
)

var update = flag.Bool("update", false, "rewrite testdata/fig10.golden, testdata/experiments.golden and testdata/suite_stream.golden")

// TestFig10Golden pins Figure 10's text — normal and recovered response, the
// kill, and every disk-I/O bucket — at two scales, each without and with a
// transient-fault schedule (degraded links, drop windows, slowdowns) drawn
// over the clean run's span. Re-record only for an intended behaviour change,
// with -update.
func TestFig10Golden(t *testing.T) {
	const path = "testdata/fig10.golden"
	var got strings.Builder
	for _, s := range []Scale{TestScale(), {Vertices: 16384, Levels: 5, Machines: 16, Seed: 7}} {
		res, err := Fig10(s)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&got, "== %d vertices, %d levels, %d machines, seed %d\n", s.Vertices, s.Levels, s.Machines, s.Seed)
		WriteFig10(&got, res)
		span := res.NormalSec
		s.Faults, _ = fault.Generate(fault.GenConfig{Machines: s.Machines, Horizon: span,
			Degrades: 6, Drops: 3, Slowdowns: 4, Seed: s.Seed})
		s.Retry = fault.RetryPolicy{Timeout: span / 10, Backoff: span / 40, MaxBackoff: span / 5}
		if res, err = Fig10(s); err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&got, "== same, with %d link faults and %d slowdowns\n", len(s.Faults.Links)+len(s.Faults.Drops), len(s.Faults.Slowdowns))
		WriteFig10(&got, res)
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
	if got.String() != string(want) {
		t.Errorf("Figure 10 text differs from %s:\n%s", path, got.String())
	}
}

// TestTimelineBuckets: Figure 10's disk series is read off the run's events.
// A task's reads land in the bucket where it starts and its writes where it
// ends; tasks are told apart by job as well as name, and an event past the
// end lands in the final bucket.
func TestTimelineBuckets(t *testing.T) {
	topo := cluster.NewT1(1)
	bw := int64(topo.DiskBandwidth())
	task := func(read, write int64) *engine.Task {
		return &engine.Task{Name: "t", Part: engine.NoPart, DiskRead: read, DiskWrite: write}
	}
	plan := []*engine.Job{
		{Name: "a", Stages: []*engine.Stage{{Name: "s", Tasks: []*engine.Task{task(bw, bw)}}}},
		{Name: "b", Stages: []*engine.Stage{{Name: "s", Tasks: []*engine.Task{task(2*bw, bw)}}}},
	}
	rec := trace.NewRecorder()
	r := engine.New(engine.Config{Topo: topo, Trace: rec})
	for _, job := range plan {
		if _, err := r.Run(job); err != nil {
			t.Fatal(err)
		}
	}
	// a runs [0, 2), b runs [2, 5).
	got := diskIO(plan, rec.Events(), 1, 4)
	want := []IOSample{{0, bw}, {1, 0}, {2, 3 * bw}, {3, 0}, {4, bw}}
	if len(got) != len(want) {
		t.Fatalf("%d buckets, want %d: %v", len(got), len(want), got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("bucket %d = %+v, want %+v", i, got[i], want[i])
		}
	}
}
