package trace_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"reflect"
	"strings"
	"testing"

	"repro/internal/analyze"
	"repro/internal/apps"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/fault"
	"repro/internal/graph"
	"repro/internal/jobsvc"
	"repro/internal/metrics"
	"repro/internal/partition"
	"repro/internal/propagation"
	"repro/internal/storage"
	"repro/internal/trace"
)

// The stream's safety net: SHA-256 of the bytes WriteEvents and
// metrics.WriteSet produce for seeded captures that between them carry every
// event kind and every Event field. Recorded while both still went through
// encoding/json and a string-keyed fold, so a codec or fold change that moves
// one byte of a file, one float of a series or one alert decision fails here.
// The same captures pin the two renderings of a stream, WriteChrome and
// Summarize's table, so every kind's row in either is held too, and the two
// folds elsewhere that file events by job and stage: analyze.Analyze's
// report and metrics.JobWindows.

// capture is one seeded run: its stream, the cluster it ran on, the
// metrics window its series are folded at — a few dozen to a few hundred
// windows per run, so windows seal (and counters flush) in mid-stream — and
// the in-loop counters the run reported (a runner's cumulative Metrics, or
// the sum of a service run's records).
type capture struct {
	name    string
	topo    *cluster.Topology
	window  float64
	events  []trace.Event
	metrics engine.Metrics
}

func topoInfo(topo *cluster.Topology) *trace.TopoInfo {
	return &trace.TopoInfo{Name: topo.Name(), Machines: topo.NumMachines(), Bandwidth: topo.BandwidthMatrix()}
}

// digestRules watches one series of every family the fold produces.
func digestRules() *metrics.RuleSet {
	return &metrics.RuleSet{Rules: []metrics.Rule{
		{Name: "level0-hot", Series: "level-util:0", Op: ">", Threshold: 0.3, For: 2},
		{Name: "machine-busy", Series: "machine-tasks:*", Op: ">=", Threshold: 0.9},
		{Name: "nic-queue", Series: "machine-queue:*", Op: ">", Threshold: 0.5, For: 2},
		{Name: "link-idle", Series: "link-util:0>*", Op: "<", Threshold: 0.01, For: 3},
		{Name: "backlog", Series: "queue-depth", Op: ">=", Threshold: 1},
		{Name: "slots", Series: "tenant-slots:*", Op: ">", Threshold: 0.5},
		{Name: "slow-admit", Series: "tenant-wait-p99:*", Op: ">", Threshold: 0.0005},
		{Name: "drops", Series: "rate-transfer-drops", Op: ">=", Threshold: 1},
	}}
}

// sumProg floods a vertex's value to its neighbours and sums what arrives.
type sumProg struct{}

func (sumProg) Init(v graph.VertexID) float64 { return 1 / float64(v+2) }
func (sumProg) Transfer(_ graph.VertexID, val float64, dst graph.VertexID, emit propagation.Emit[float64]) {
	emit(dst, val/2)
}
func (sumProg) Combine(_ graph.VertexID, prev float64, values []float64) float64 {
	for _, v := range values {
		prev += v
	}
	return prev
}
func (sumProg) Bytes(float64) int64 { return 8 }
func (sumProg) Associative() bool   { return true }
func (sumProg) Merge(_ graph.VertexID, values []float64) float64 {
	sum := 0.0
	for _, v := range values {
		sum += v
	}
	return sum
}

// faultedCapture is NR at O1 on 16 machines under degrades, drops and
// slowdowns with a retry policy short against the run, speculation on.
func faultedCapture(t *testing.T) capture {
	t.Helper()
	g := graph.Social(graph.DefaultSocial(2048, 42))
	topo := cluster.NewT2(cluster.T2Config{Machines: 16, Pods: 4, Levels: 1})
	build := func(cfg core.Config) *core.System {
		cfg.Graph, cfg.Topology, cfg.Levels, cfg.Seed = g, topo, 5, 42
		sys, err := core.Build(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return sys
	}
	base := build(core.Config{})
	_, m, err := apps.NewNR(3).RunPropagation(base.NewRunner(), base.PG, base.Placement, propagation.Options{})
	if err != nil {
		t.Fatal(err)
	}
	h := m.ResponseSeconds
	sched, _ := fault.Generate(fault.GenConfig{Machines: 16, Horizon: h, Degrades: 40, Drops: 40, Slowdowns: 8, Seed: 42})
	rec := trace.NewRecorder()
	sys := build(core.Config{
		Trace: rec, Faults: sched,
		Retry:     fault.RetryPolicy{Timeout: h / 100, Backoff: h / 400, MaxBackoff: h / 10},
		Speculate: true,
	})
	r := sys.NewRunner()
	if _, _, err := apps.NewNR(3).RunPropagation(r, sys.PG, sys.Placement, propagation.Options{}); err != nil {
		t.Fatal(err)
	}
	return capture{"faulted", topo, h / 50, rec.Events(), r.Metrics()}
}

// chaosConfig is the four-machine fault+elastic schedule of the metrics
// goldens: a rate-capped join, a drain with a real migration, a machine death
// with failover retries and a link drop with a backoff retry.
func chaosConfig(rec *trace.Recorder) engine.Config {
	bw := int64(cluster.LinkBandwidth)
	return engine.Config{
		Topo:      cluster.NewT1(4),
		Replicas:  &storage.Replicas{Machines: [][]cluster.MachineID{{0, 2}, {1, 3}, {2, 0}}},
		Trace:     rec,
		PartBytes: []int64{0, bw, 0},
		Faults: &fault.Schedule{
			Kills:  []fault.Kill{{Machine: 2, At: 3.8}},
			Joins:  []fault.MachineJoin{{Machine: 3, At: 0.25, NICs: cluster.LinkBandwidth / 2}},
			Drains: []fault.MachineDrain{{Machine: 1, At: 0.5, Deadline: 10}},
			Drops:  []fault.LinkFault{{Src: 2, Dst: 0, From: 1.5, Until: 2.4}},
		},
	}
}

func chaosJob() *engine.Job {
	stage := func(name string, compute float64, fanOut bool) *engine.Stage {
		tasks := make([]*engine.Task, 3)
		for i := range tasks {
			tasks[i] = &engine.Task{
				Name: fmt.Sprintf("%s-t%d", name, i),
				Part: partition.PartID(i), Machine: cluster.MachineID(i), Compute: compute,
			}
			if fanOut {
				tasks[i].Outputs = []engine.Output{{DstTask: (i + 1) % 3, Bytes: int64(cluster.LinkBandwidth / 4)}}
			}
		}
		return &engine.Stage{Name: name, Tasks: tasks}
	}
	return &engine.Job{Name: "chaos", Stages: []*engine.Stage{stage("s0", 2, true), stage("s1", 1, false)}}
}

// elasticCapture is the chaos run; with live it carries a collector whose
// alert decisions are emitted back into the stream.
func elasticCapture(t *testing.T, live bool) capture {
	t.Helper()
	rec := trace.NewRecorder()
	cfg := chaosConfig(rec)
	name := "elastic"
	if live {
		name = "live-alerts"
		col, err := metrics.NewCollector(metrics.Config{Window: 0.25, Topo: cfg.Topo, Rules: &metrics.RuleSet{Rules: []metrics.Rule{
			{Name: "level0-hot", Series: "level-util:0", Op: ">", Threshold: 0.5, For: 2},
			{Name: "machine-busy", Series: "machine-tasks:*", Op: ">=", Threshold: 0.9},
		}}})
		if err != nil {
			t.Fatal(err)
		}
		col.Attach(rec)
		defer col.Finish()
	}
	r := engine.New(cfg)
	if _, err := r.Run(chaosJob()); err != nil {
		t.Fatal(err)
	}
	return capture{name, cfg.Topo, 0.05, rec.Events(), r.Metrics()}
}

// checkpointedCapture kills a machine 70% into a four-iteration run that
// checkpoints every second iteration.
func checkpointedCapture(t *testing.T) capture {
	t.Helper()
	g := graph.Social(graph.DefaultSocial(1024, 7))
	topo := cluster.NewT1(8)
	opt := propagation.Options{LocalPropagation: true, LocalCombination: true}
	build := func(cfg core.Config) *core.System {
		cfg.Graph, cfg.Topology, cfg.Levels, cfg.Seed = g, topo, 3, 7
		sys, err := core.Build(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return sys
	}
	base := build(core.Config{})
	_, m, err := propagation.RunIterations(base.NewRunner(), base.PG, base.Placement, sumProg{},
		propagation.NewState(base.PG, sumProg{}), opt, 4)
	if err != nil {
		t.Fatal(err)
	}
	rec := trace.NewRecorder()
	sys := build(core.Config{
		Trace:             rec,
		Faults:            &fault.Schedule{Kills: []fault.Kill{{Machine: 2, At: 0.7 * m.ResponseSeconds}}},
		HeartbeatInterval: m.ResponseSeconds / 20,
	})
	r := sys.NewRunner()
	if _, _, err := propagation.RunCheckpointed(r, sys.PG, sys.Placement, sumProg{}, propagation.NewState(sys.PG, sumProg{}), opt, 4,
		propagation.CheckpointConfig{Interval: 2, Replicas: sys.Replicas}); err != nil {
		t.Fatal(err)
	}
	return capture{"checkpointed", topo, m.ResponseSeconds / 30, rec.Events(), r.Metrics()}
}

// A service capture's engine jobs each have serviceStages stages of
// serviceTasks tasks.
const serviceStages, serviceTasks = 3, 5

// serviceCapture runs twelve synthetic jobs of three tenants through the job
// service under pol, with faults and a queue limit that rejects.
func serviceCapture(t *testing.T, pol jobsvc.Policy) capture {
	t.Helper()
	const n = 12
	topo := cluster.NewT3(8, 7)
	plans := jobsvc.SyntheticPlan(42, 8, 2*n, serviceStages, serviceTasks)
	jobs := make([]jobsvc.Job, n)
	for i := range jobs {
		jobs[i] = jobsvc.Job{
			Spec: jobsvc.JobSpec{
				ID: fmt.Sprintf("job-%02d", i), Tenant: fmt.Sprintf("tenant-%d", i%3),
				Priority: i % 3, Submit: 0.0007 * float64(i),
			},
			Plan: plans[2*i : 2*i+2],
		}
	}
	jobs[4].Spec.Submit = jobs[3].Spec.Submit
	sched, _ := fault.Generate(fault.GenConfig{Machines: 8, Horizon: 0.2, Degrades: 6, Drops: 6, Slowdowns: 3, Seed: 42})
	rec := trace.NewRecorder()
	records, err := jobsvc.Run(jobsvc.Config{
		Topo: topo, Policy: pol, Concurrency: 2, QueueLimit: 6, Trace: rec,
		Faults: sched, Retry: fault.RetryPolicy{Timeout: 0.002, Backoff: 0.0005, MaxBackoff: 0.004},
	}, jobs)
	if err != nil {
		t.Fatal(err)
	}
	var m engine.Metrics
	for _, rec := range records {
		m.Add(engine.Metrics{MachineSeconds: rec.MachineSeconds, NetworkBytes: rec.NetworkBytes, TasksRun: rec.TasksRun,
			TransferDrops: rec.TransferDrops, TransferRetries: rec.TransferRetries})
	}
	return capture{"jobsvc-" + pol.String(), topo, 0.002, rec.Events(), m}
}

func digestCaptures(t *testing.T) []capture {
	t.Helper()
	caps := []capture{faultedCapture(t), elasticCapture(t, false), checkpointedCapture(t)}
	for _, pol := range jobsvc.Policies {
		caps = append(caps, serviceCapture(t, pol))
	}
	return append(caps, elasticCapture(t, true))
}

// TestStreamDigestsGolden pins, per capture, the stream file (with its
// topology header), the series file folded from it at a fixed window, the
// series file plus alert records folded under a rule file, the Chrome export,
// the breakdown table, the analyzer's report and the job windows.
func TestStreamDigestsGolden(t *testing.T) {
	const path = "testdata/stream_digests.golden"
	caps := digestCaptures(t)
	assertCoverage(t, caps)
	assertMetricsEqualFold(t, caps)

	var got strings.Builder
	for _, c := range caps {
		var file bytes.Buffer
		if err := trace.WriteEvents(&file, topoInfo(c.topo), c.events); err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&got, "%s events %d %x\n", c.name, len(c.events), sha256.Sum256(file.Bytes()))

		s, err := trace.ReadEvents(bytes.NewReader(file.Bytes()))
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if !reflect.DeepEqual(s.Events, c.events) || !reflect.DeepEqual(s.Topo, topoInfo(c.topo)) {
			t.Errorf("%s: stream changed in the round trip through its file", c.name)
		}

		for _, rules := range []*metrics.RuleSet{nil, digestRules()} {
			set, alerts, err := metrics.FromEvents(c.events, metrics.Config{Window: c.window, Topo: c.topo, Rules: rules})
			if err != nil {
				t.Fatal(err)
			}
			h := sha256.New()
			if err := metrics.WriteSet(h, set); err != nil {
				t.Fatal(err)
			}
			row := "series"
			if rules != nil {
				row = "series+rules"
				if err := json.NewEncoder(h).Encode(alerts); err != nil {
					t.Fatal(err)
				}
			}
			fmt.Fprintf(&got, "%s %s %d/%d/%d %x\n", c.name, row, len(set.Series), set.Windows, len(alerts), h.Sum(nil))
		}
		// Without a topology the fold sizes its tables on demand.
		set, _, err := metrics.FromEvents(c.events, metrics.Config{Window: c.window})
		if err != nil {
			t.Fatal(err)
		}
		h := sha256.New()
		if err := metrics.WriteSet(h, set); err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&got, "%s series-notopo %d/%d/0 %x\n", c.name, len(set.Series), set.Windows, h.Sum(nil))

		// The two renderings: the Chrome timeline and the breakdown table.
		h.Reset()
		if err := trace.WriteChrome(h, c.events); err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&got, "%s chrome %x\n", c.name, h.Sum(nil))
		h.Reset()
		trace.Summarize(c.events).WriteText(h)
		fmt.Fprintf(&got, "%s breakdown %x\n", c.name, h.Sum(nil))

		// The two folds outside this package that file events by job and
		// stage: the analyzer's report and the autoscaler's job windows.
		h.Reset()
		rep, err := analyze.Analyze(c.events, c.topo)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if err := analyze.WriteText(h, rep); err != nil {
			t.Fatal(err)
		}
		if err := analyze.WriteJSON(h, rep); err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&got, "%s analyze %d %x\n", c.name, len(rep.Stages), h.Sum(nil))
		h.Reset()
		wins := metrics.JobWindows(c.events, c.topo)
		if err := json.NewEncoder(h).Encode(wins); err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&got, "%s windows %d %x\n", c.name, len(wins), h.Sum(nil))
	}

	if f := flag.Lookup("update"); f != nil && f.Value.String() == "true" {
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

// TestSummarizeConcurrentJobs: in a stream of two jobs running at once, the
// breakdown files every task under its own job and stage, so each planned
// stage shows exactly its planned tasks and nothing is left untracked.
func TestSummarizeConcurrentJobs(t *testing.T) {
	for _, pol := range jobsvc.Policies {
		c := serviceCapture(t, pol)
		for _, jb := range trace.Summarize(c.events).Jobs {
			if len(jb.Stages) != serviceStages {
				t.Errorf("%s: job %s has %d stages, planned %d", c.name, jb.Name, len(jb.Stages), serviceStages)
			}
			for _, sb := range jb.Stages {
				run := 0
				for _, mb := range sb.Machines {
					run += mb.TasksRun
				}
				if run != serviceTasks {
					t.Errorf("%s: job %s stage %s ran %d tasks, planned %d", c.name, jb.Name, sb.Name, run, serviceTasks)
				}
			}
		}
	}
}

// assertCoverage fails unless the captures between them carry every event
// kind and a non-zero value of every Event field, so the golden exercises the
// whole codec.
func assertCoverage(t *testing.T, caps []capture) {
	t.Helper()
	kinds := make(map[trace.EventKind]bool)
	fields := make(map[string]bool)
	for _, c := range caps {
		for i := range c.events {
			kinds[c.events[i].Kind] = true
			v := reflect.ValueOf(c.events[i])
			for f := 0; f < v.NumField(); f++ {
				if !v.Field(f).IsZero() {
					fields[v.Type().Field(f).Name] = true
				}
			}
		}
	}
	for k := trace.KindJobBegin; k <= trace.KindAlertResolved; k++ {
		if !kinds[k] {
			t.Errorf("no capture carries a %s event", k)
		}
	}
	typ := reflect.TypeOf(trace.Event{})
	for f := 0; f < typ.NumField(); f++ {
		if !fields[typ.Field(f).Name] {
			t.Errorf("no capture carries a non-zero %s", typ.Field(f).Name)
		}
	}
}

// assertMetricsEqualFold pins the in-loop counters against the stream: every
// engine.Metrics field a capture can reproduce equals the total folded from
// its events — counts and bytes exactly, MachineSeconds to 1e-9 relative
// (one quantity, two float associations: the engine sums task seconds in
// event order, Summarize per (job, stage, machine) first). DiskBytes and
// ResponseSeconds are not reproducible: no event carries a task's disk
// volume, and a runner's clock also spans the gaps between its jobs.
func assertMetricsEqualFold(t *testing.T, caps []capture) {
	t.Helper()
	for _, c := range caps {
		b := trace.Summarize(c.events)
		tot := b.Totals()
		fold := engine.Metrics{
			MachineSeconds: tot.ComputeSeconds, NetworkBytes: tot.EgressBytes,
			TasksRun: tot.TasksRun, Recoveries: tot.Retries,
			TransferDrops: tot.TransferDrops, TransferRetries: tot.TransferRetries,
			Speculations: tot.Speculations, Checkpoints: b.Checkpoints, Restores: b.Restores,
		}
		for i := range c.events {
			switch ev := &c.events[i]; ev.Kind {
			case trace.KindMachineJoin:
				fold.Joins++
			case trace.KindMachineDrain:
				fold.Drains++
			case trace.KindPartitionMigrate:
				fold.Migrations++
				fold.MigrationBytes += ev.Bytes
			}
		}
		want := c.metrics
		if rel := math.Abs(fold.MachineSeconds-want.MachineSeconds) / want.MachineSeconds; !(rel <= 1e-9) {
			t.Errorf("%s: stream folds to %g machine seconds, Metrics reports %g", c.name, fold.MachineSeconds, want.MachineSeconds)
		}
		fold.MachineSeconds, want.MachineSeconds = 0, 0
		want.DiskBytes, want.ResponseSeconds = 0, 0
		if fold != want {
			t.Errorf("%s: stream folds to\n %+v\nMetrics reports\n %+v", c.name, fold, want)
		}
	}
}
