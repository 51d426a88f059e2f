package metrics_test

import (
	"bytes"
	"flag"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"repro/internal/analyze"
	"repro/internal/cluster"
	"repro/internal/engine"
	"repro/internal/fault"
	"repro/internal/metrics"
	"repro/internal/partition"
	"repro/internal/storage"
	"repro/internal/trace"
)

var update = flag.Bool("update", false, "rewrite golden files")

// chaosTopo returns the four-machine topology of the chaos workload.
func chaosTopo() *cluster.Topology { return cluster.NewT1(4) }

// chaosConfig assembles the seeded fault+elastic schedule the determinism
// goldens pin: a slow spot-instance join, a graceful drain with a real
// migration, a machine death with failover retries, and a transient link
// drop with backoff retries — every event family the collector folds.
func chaosConfig(rec *trace.Recorder, workers int) engine.Config {
	bw := int64(cluster.LinkBandwidth)
	return engine.Config{
		Topo: chaosTopo(),
		Replicas: &storage.Replicas{Machines: [][]cluster.MachineID{
			{0, 2}, {1, 3}, {2, 0},
		}},
		Trace:   rec,
		Workers: workers,
		Faults: &fault.Schedule{
			// Mid-second-stage: machine 2's running task is lost and retried
			// on its surviving replica after the heartbeat.
			Kills:  []fault.Kill{{Machine: 2, At: 3.8}},
			Joins:  []fault.MachineJoin{{Machine: 3, At: 0.25, NICs: cluster.LinkBandwidth / 2}},
			Drains: []fault.MachineDrain{{Machine: 1, At: 0.5, Deadline: 10}},
			Drops: []fault.LinkFault{
				// Covers the 2→0 shuffle transfer at t=2: one drop, one
				// timeout, one backoff retry.
				{Src: 2, Dst: 0, From: 1.5, Until: 2.4},
			},
		},
		PartBytes: []int64{0, bw, 0},
	}
}

// chaosJob is a two-stage job with pinned tasks and enough cross-machine
// traffic to keep the level-0 cut busy.
func chaosJob() *engine.Job {
	stage := func(name string, compute float64, fanOut bool) *engine.Stage {
		tasks := make([]*engine.Task, 3)
		for i := range tasks {
			tasks[i] = &engine.Task{
				Name: name + "-t" + strconv.Itoa(i),
				Part: partition.PartID(i), Machine: cluster.MachineID(i),
				Compute: compute,
			}
			if fanOut {
				tasks[i].Outputs = []engine.Output{
					{DstTask: (i + 1) % 3, Bytes: int64(cluster.LinkBandwidth / 4)},
				}
			}
		}
		return &engine.Stage{Name: name, Tasks: tasks}
	}
	return &engine.Job{Name: "chaos", Stages: []*engine.Stage{
		stage("s0", 2, true), stage("s1", 1, false),
	}}
}

const chaosWindow = 0.25

// chaosRules exercises the alert engine on the chaos run.
func chaosRules() *metrics.RuleSet {
	return &metrics.RuleSet{Rules: []metrics.Rule{
		{Name: "level0-hot", Series: "level-util:0", Op: ">", Threshold: 0.5, For: 2},
		{Name: "machine-busy", Series: "machine-tasks:*", Op: ">=", Threshold: 0.9, For: 1},
	}}
}

// chaosRun executes the workload once: live series sampled during the run,
// alert events emitted into the stream. Returns the live set, the captured
// stream and the live alert records.
func chaosRun(t *testing.T, workers int) (*metrics.Set, []trace.Event, []metrics.Alert) {
	t.Helper()
	rec := trace.NewRecorder()
	col, err := metrics.NewCollector(metrics.Config{
		Window: chaosWindow, Topo: chaosTopo(), Rules: chaosRules(),
	})
	if err != nil {
		t.Fatal(err)
	}
	col.Attach(rec)
	r := engine.New(chaosConfig(rec, workers))
	if _, err := r.Run(chaosJob()); err != nil {
		t.Fatal(err)
	}
	return col.Finish(), rec.Events(), col.Alerts()
}

func marshalSet(t *testing.T, s *metrics.Set) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := metrics.WriteSet(&buf, s); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestLiveEqualsDerivedAcrossWorkers is the tentpole identity: the series
// sampled live during the run and the series derived offline from the
// captured stream are byte-identical, for Workers 1, 4 and 8, under the
// seeded fault+elastic schedule — and pinned against a committed golden.
func TestLiveEqualsDerivedAcrossWorkers(t *testing.T) {
	var first []byte
	for _, workers := range []int{1, 4, 8} {
		live, events, liveAlerts := chaosRun(t, workers)
		liveBytes := marshalSet(t, live)

		// The captured stream contains the live-emitted alert events; the
		// derived fold must skip them and reproduce the live series exactly.
		derived, alerts, err := metrics.FromEvents(events, metrics.Config{
			Window: chaosWindow, Topo: chaosTopo(), Rules: chaosRules(),
		})
		if err != nil {
			t.Fatal(err)
		}
		derivedBytes := marshalSet(t, derived)
		if !bytes.Equal(liveBytes, derivedBytes) {
			t.Fatalf("workers=%d: live and derived series differ\n--- live ---\n%s\n--- derived ---\n%s",
				workers, liveBytes, derivedBytes)
		}
		if len(alerts) != len(liveAlerts) {
			t.Fatalf("workers=%d: %d derived alerts, %d live", workers, len(alerts), len(liveAlerts))
		}
		for i := range alerts {
			if alerts[i] != liveAlerts[i] {
				t.Fatalf("workers=%d: alert %d differs: live %+v derived %+v",
					workers, i, liveAlerts[i], alerts[i])
			}
		}
		if first == nil {
			first = liveBytes
		} else if !bytes.Equal(first, liveBytes) {
			t.Fatalf("workers=%d: series differ from Workers=1", workers)
		}
	}

	golden := filepath.Join("testdata", "chaos_series.golden")
	if *update {
		if err := os.WriteFile(golden, first, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first, want) {
		t.Fatalf("chaos series drifted from %s (run with -update to regenerate):\n--- got ---\n%s\n--- want ---\n%s",
			golden, first, want)
	}
}

// TestAlertEventsInStream checks the live alert events: fired events anchor
// to an event of their breaching window, resolves anchor to their fire, and
// the stream still validates end to end (Seq dense, causes acausal-free) —
// surfer-analyze accepts it.
func TestAlertEventsInStream(t *testing.T) {
	_, events, _ := chaosRun(t, 1)
	fired := make(map[string]int) // name → seq
	sawFire, sawResolve := false, false
	for _, ev := range events {
		switch ev.Kind {
		case trace.KindAlertFired:
			sawFire = true
			if ev.Cause != trace.None {
				c := events[ev.Cause]
				if c.Time >= ev.Time {
					t.Fatalf("alert %q cause %d at t=%g, not inside the window ending %g",
						ev.Name, ev.Cause, c.Time, ev.Time)
				}
			}
			fired[ev.Name] = ev.Seq
		case trace.KindAlertResolved:
			sawResolve = true
			fseq, ok := fired[ev.Name]
			if !ok {
				t.Fatalf("resolve %q without a fire", ev.Name)
			}
			if ev.Cause != fseq {
				t.Fatalf("resolve %q cause %d, want its fire %d", ev.Name, ev.Cause, fseq)
			}
			delete(fired, ev.Name)
		}
	}
	if !sawFire || !sawResolve {
		t.Fatalf("chaos run fired=%v resolved=%v, want both (tune the rules)", sawFire, sawResolve)
	}
	if _, err := analyze.Analyze(events, chaosTopo()); err != nil {
		t.Fatalf("analyzer rejects a stream with alert events: %v", err)
	}
}

// TestLinkBytesIntegralMatchesAnalyze: summing a link's link-bytes windows
// must reproduce exactly the per-link and per-level byte totals the analyze
// link report computes from the same trace — for every worker count.
func TestLinkBytesIntegralMatchesAnalyze(t *testing.T) {
	for _, workers := range []int{1, 4, 8} {
		_, events, _ := chaosRun(t, workers)
		set, _, err := metrics.FromEvents(events, metrics.Config{Window: chaosWindow, Topo: chaosTopo()})
		if err != nil {
			t.Fatal(err)
		}
		rep, err := analyze.Analyze(events, chaosTopo())
		if err != nil {
			t.Fatal(err)
		}
		if rep.Links == nil {
			t.Fatal("no link report")
		}
		integral := func(name string) float64 {
			s := set.Lookup(name)
			if s == nil {
				return 0
			}
			sum := 0.0
			for _, v := range s.Values {
				sum += v
			}
			return sum
		}
		for _, link := range rep.Links.Hot {
			name := "link-bytes:" + strconv.Itoa(link.Src) + ">" + strconv.Itoa(link.Dst)
			if got := integral(name); got != float64(link.Bytes) {
				t.Fatalf("workers=%d: %s integrates to %g, analyze says %d", workers, name, got, link.Bytes)
			}
		}
		// Per-level totals: group the series by bisection level and compare.
		lvl := cluster.BisectionLevels(chaosTopo())
		for _, ls := range rep.Links.Levels {
			sum := 0.0
			for i := range set.Series {
				name := set.Series[i].Name
				if !strings.HasPrefix(name, "link-bytes:") {
					continue
				}
				var src, dst int
				pair := strings.TrimPrefix(name, "link-bytes:")
				if _, err := fmtSscan(pair, &src, &dst); err != nil {
					t.Fatal(err)
				}
				if lvl[src][dst] != ls.Level {
					continue
				}
				for _, v := range set.Series[i].Values {
					sum += v
				}
			}
			if sum != float64(ls.Bytes) {
				t.Fatalf("workers=%d: level %d integrates to %g, analyze says %d",
					workers, ls.Level, sum, ls.Bytes)
			}
		}
	}
}

// fmtSscan parses "S>D" link labels.
func fmtSscan(pair string, src, dst *int) (int, error) {
	parts := strings.SplitN(pair, ">", 2)
	s, err := strconv.Atoi(parts[0])
	if err != nil {
		return 0, err
	}
	d, err := strconv.Atoi(parts[1])
	if err != nil {
		return 0, err
	}
	*src, *dst = s, d
	return 2, nil
}

// TestAutoscalePlanUnchangedByRewire: Autoscale consuming metrics.JobWindows
// must still emit the documented plan on the canonical synthetic stream
// (mirrors analyze's policy golden, guarding the rewiring from here).
func TestAutoscalePlanUnchangedByRewire(t *testing.T) {
	rec := trace.NewRecorder()
	win := func(name string, t0, busy float64) {
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
	win("w1", 0, 0.9)
	win("w2", 1, 0.9)
	win("w3", 2, 0)
	win("w4", 3, 0)
	topo := cluster.NewT1(2)

	wins := metrics.JobWindows(rec.Events(), topo)
	if len(wins) != 4 {
		t.Fatalf("JobWindows = %d, want 4", len(wins))
	}
	if math.Abs(wins[0].MaxLevel0Util-0.9) > 1e-9 || wins[2].MaxLevel0Util != 0 {
		t.Fatalf("utils = %+v", wins)
	}
	plan, err := analyze.Autoscale(rec.Events(), topo)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Joins) != 1 || int(plan.Joins[0].Machine) != 2 || plan.Joins[0].At != 2 {
		t.Fatalf("joins = %+v", plan.Joins)
	}
	if len(plan.Drains) != 1 || plan.Drains[0].Machine != 1 || plan.Drains[0].At != 4 {
		t.Fatalf("drains = %+v", plan.Drains)
	}
}

// TestNewCollectorRejectsBadWindow: a window that is not positive and finite
// is refused. NaN once passed the `<= 0` check and grew the series until the
// process ran out of memory.
func TestNewCollectorRejectsBadWindow(t *testing.T) {
	for _, w := range []float64{0, -1, math.NaN(), math.Inf(1), math.Inf(-1)} {
		if _, err := metrics.NewCollector(metrics.Config{Window: w}); err == nil || !strings.Contains(err.Error(), "positive and finite") {
			t.Errorf("window %g: err = %v", w, err)
		}
	}
}
