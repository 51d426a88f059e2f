package bench

import (
	"fmt"
	"io"

	"repro/internal/apps"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/fault"
	"repro/internal/graph"
	"repro/internal/partition"
	"repro/internal/propagation"
	"repro/internal/trace"
)

// ---------------------------------------------------------------- Table 1

// Table1Row is one topology column of Table 1.
type Table1Row struct {
	Topology       string
	ParMetisSec    float64
	BandwidthSec   float64
	ImprovementPct float64
}

// Table1 measures the elapsed time of distributed partitioning under each
// topology for the oblivious baseline and the bandwidth-aware algorithm.
func Table1(s Scale) ([]Table1Row, error) {
	topos, err := s.Topologies()
	if err != nil {
		return nil, err
	}
	g := s.MakeGraph()
	// The oblivious baseline's cost depends on which random machine subsets
	// its recursion happens to draw; average several draws so the row
	// reflects the expected behaviour, not one lucky draw. Every draw prices
	// the scale's own bisection: the table compares placement awareness,
	// not bisection quality.
	const pmTrials = 5
	sys, err := s.shared.deploy(core.Config{Graph: g, Topology: topos[0], Levels: s.Levels, Seed: s.Seed})
	if err != nil {
		return nil, err
	}
	var rows []Table1Row
	for _, topo := range topos {
		var tBA, tPM float64
		for trial := int64(0); trial < pmTrials; trial++ {
			aware, baseline := partition.PartitioningTime(g, sys.Sketch, topo, s.Seed+trial+1)
			if trial == 0 {
				tBA = aware
			}
			tPM += baseline
		}
		tPM /= pmTrials
		rows = append(rows, Table1Row{
			Topology:       topo.Name(),
			ParMetisSec:    tPM,
			BandwidthSec:   tBA,
			ImprovementPct: 100 * (tPM - tBA) / tPM,
		})
	}
	return rows, nil
}

// WriteTable1 renders Table 1.
func WriteTable1(w io.Writer, rows []Table1Row) {
	fmt.Fprintln(w, "Table 1: Elapsed time of partitioning on different topologies (seconds)")
	fmt.Fprintf(w, "%-16s", "Topology")
	for _, r := range rows {
		fmt.Fprintf(w, "%12s", r.Topology)
	}
	fmt.Fprintf(w, "\n%-16s", "ParMetis-like")
	for _, r := range rows {
		fmt.Fprintf(w, "%12.2f", r.ParMetisSec)
	}
	fmt.Fprintf(w, "\n%-16s", "Bandwidth aware")
	for _, r := range rows {
		fmt.Fprintf(w, "%12.2f", r.BandwidthSec)
	}
	fmt.Fprintf(w, "\n%-16s", "Improvement %")
	for _, r := range rows {
		fmt.Fprintf(w, "%11.1f%%", r.ImprovementPct)
	}
	fmt.Fprintln(w)
}

// ------------------------------------------------------------ Tables 2-3

// AppLevelMetrics is one (application, optimization level) cell of Tables
// 2 and 3.
type AppLevelMetrics struct {
	App     string
	Level   OptLevel
	Metrics engine.Metrics
}

// Tables23 runs every application at every optimization level on T1.
func Tables23(s Scale) ([]AppLevelMetrics, error) {
	d, err := NewDeployment(s)
	if err != nil {
		return nil, err
	}
	var out []AppLevelMetrics
	for _, app := range apps.All() {
		for _, lvl := range []OptLevel{O1, O2, O3, O4} {
			m, err := d.RunApp(app, lvl)
			if err != nil {
				return nil, fmt.Errorf("%s %v: %w", app.Name(), lvl, err)
			}
			out = append(out, AppLevelMetrics{App: app.Name(), Level: lvl, Metrics: m})
		}
	}
	return out, nil
}

// WriteTable2 renders response and total machine time.
func WriteTable2(w io.Writer, cells []AppLevelMetrics) {
	fmt.Fprintln(w, "Table 2: Response time and total machine time of applications on T1 (seconds)")
	writeAppLevelTable(w, cells, func(m engine.Metrics) (float64, float64) {
		return m.ResponseSeconds, m.MachineSeconds
	}, "Res.", "Total.", "%10.3f")
}

// WriteTable3 renders network and disk I/O.
func WriteTable3(w io.Writer, cells []AppLevelMetrics) {
	fmt.Fprintln(w, "Table 3: Disk and network I/O of applications on T1 (MB)")
	writeAppLevelTable(w, cells, func(m engine.Metrics) (float64, float64) {
		return float64(m.NetworkBytes) / 1e6, float64(m.DiskBytes) / 1e6
	}, "Net.", "Disk.", "%10.2f")
}

func writeAppLevelTable(w io.Writer, cells []AppLevelMetrics, pick func(engine.Metrics) (float64, float64), h1, h2, f string) {
	order := []string{"VDD", "RS", "NR", "RLG", "TC", "TFL"}
	fmt.Fprintf(w, "%-4s", "")
	for _, app := range order {
		fmt.Fprintf(w, "%10s%10s", app+" "+h1, h2)
	}
	fmt.Fprintln(w)
	for _, lvl := range []OptLevel{O1, O2, O3, O4} {
		fmt.Fprintf(w, "%-4s", lvl)
		for _, app := range order {
			for _, c := range cells {
				if c.App == app && c.Level == lvl {
					a, b := pick(c.Metrics)
					fmt.Fprintf(w, f, a)
					fmt.Fprintf(w, f, b)
				}
			}
		}
		fmt.Fprintln(w)
	}
}

// ---------------------------------------------------------------- Table 5

// Table5Row is one partition-count column of Table 5.
type Table5Row struct {
	Partitions    int
	GranularityMB float64
	IerOursPct    float64
	IerRandomPct  float64
}

// Table5 sweeps the partition count and reports inner-edge ratios for the
// multilevel partitioner versus random partitioning.
func Table5(s Scale) ([]Table5Row, error) {
	g := s.MakeGraph()
	var rows []Table5Row
	for levels := s.Levels + 1; levels >= s.Levels-2 && levels >= 1; levels-- {
		p := 1 << levels
		pt, _ := partition.RecursiveBisect(g, levels, partition.Options{Seed: s.Seed, Workers: s.Workers})
		rnd := partition.Random(g, p, s.Seed)
		rows = append(rows, Table5Row{
			Partitions:    p,
			GranularityMB: float64(g.SizeBytes()) / float64(p) / 1e6,
			IerOursPct:    100 * partition.InnerEdgeRatio(g, pt),
			IerRandomPct:  100 * partition.InnerEdgeRatio(g, rnd),
		})
	}
	return rows, nil
}

// WriteTable5 renders Table 5.
func WriteTable5(w io.Writer, rows []Table5Row) {
	fmt.Fprintln(w, "Table 5: Inner edge ratios with different partition sizes")
	fmt.Fprintf(w, "%-28s", "Number of partitions")
	for _, r := range rows {
		fmt.Fprintf(w, "%10d", r.Partitions)
	}
	fmt.Fprintf(w, "\n%-28s", "Partition granularity (MB)")
	for _, r := range rows {
		fmt.Fprintf(w, "%10.2f", r.GranularityMB)
	}
	fmt.Fprintf(w, "\n%-28s", "ier of our partitioning (%)")
	for _, r := range rows {
		fmt.Fprintf(w, "%10.1f", r.IerOursPct)
	}
	fmt.Fprintf(w, "\n%-28s", "ier of random (%)")
	for _, r := range rows {
		fmt.Fprintf(w, "%10.1f", r.IerRandomPct)
	}
	fmt.Fprintln(w)
}

// ---------------------------------------------------------------- Fig 6

// Fig6Row reports the bandwidth-aware layout's improvement for one
// application on one topology (O3 vs O4, both with local optimizations).
type Fig6Row struct {
	Topology       string
	App            string
	ObliviousSec   float64
	AwareSec       float64
	ImprovementPct float64
}

// Fig6 measures the impact of bandwidth-aware partitioning on the non-flat
// topologies, placing one bisection on each.
func Fig6(s Scale) ([]Fig6Row, error) {
	s = s.withMemo()
	topos, err := s.Topologies()
	if err != nil {
		return nil, err
	}
	g := s.MakeGraph()
	var rows []Fig6Row
	for _, topo := range topos {
		if topo.Name() == "T1" {
			continue
		}
		d, err := NewDeploymentFor(s, topo, g)
		if err != nil {
			return nil, err
		}
		for _, app := range []apps.App{apps.NewNR(3), apps.NewTFL(apps.DefaultSelectRatio)} {
			m3, err := d.RunApp(app, O3)
			if err != nil {
				return nil, err
			}
			m4, err := d.RunApp(app, O4)
			if err != nil {
				return nil, err
			}
			rows = append(rows, Fig6Row{
				Topology:       topo.Name(),
				App:            app.Name(),
				ObliviousSec:   m3.ResponseSeconds,
				AwareSec:       m4.ResponseSeconds,
				ImprovementPct: 100 * (m3.ResponseSeconds - m4.ResponseSeconds) / m3.ResponseSeconds,
			})
		}
	}
	return rows, nil
}

// WriteFig6 renders Figure 6.
func WriteFig6(w io.Writer, rows []Fig6Row) {
	fmt.Fprintln(w, "Figure 6: Impact of bandwidth aware partitioning on different topologies")
	fmt.Fprintf(w, "%-10s %-5s %14s %14s %12s\n", "Topology", "App", "Oblivious (s)", "Aware (s)", "Improvement")
	for _, r := range rows {
		fmt.Fprintf(w, "%-10s %-5s %14.3f %14.3f %11.1f%%\n", r.Topology, r.App, r.ObliviousSec, r.AwareSec, r.ImprovementPct)
	}
}

// ---------------------------------------------------------------- Fig 7

// Fig7Row compares the two primitives for one application on T1.
type Fig7Row struct {
	App             string
	MRSec           float64
	PropSec         float64
	Speedup         float64
	MRNetMB         float64
	PropNetMB       float64
	NetReductionPct float64
}

// Fig7 compares MapReduce against fully optimized propagation (O4).
func Fig7(s Scale) ([]Fig7Row, error) {
	d, err := NewDeployment(s)
	if err != nil {
		return nil, err
	}
	var rows []Fig7Row
	for _, app := range apps.All() {
		mm, err := d.RunAppMR(app)
		if err != nil {
			return nil, err
		}
		mp, err := d.RunApp(app, O4)
		if err != nil {
			return nil, err
		}
		rows = append(rows, Fig7Row{
			App:             app.Name(),
			MRSec:           mm.ResponseSeconds,
			PropSec:         mp.ResponseSeconds,
			Speedup:         mm.ResponseSeconds / mp.ResponseSeconds,
			MRNetMB:         float64(mm.NetworkBytes) / 1e6,
			PropNetMB:       float64(mp.NetworkBytes) / 1e6,
			NetReductionPct: 100 * float64(mm.NetworkBytes-mp.NetworkBytes) / float64(mm.NetworkBytes),
		})
	}
	return rows, nil
}

// WriteFig7 renders Figure 7.
func WriteFig7(w io.Writer, rows []Fig7Row) {
	fmt.Fprintln(w, "Figure 7: Performance comparison between MapReduce and P-Surfer on T1")
	fmt.Fprintf(w, "%-5s %12s %12s %9s %12s %12s %10s\n", "App", "MR (s)", "Prop (s)", "Speedup", "MR net MB", "Prop net MB", "Net -%")
	for _, r := range rows {
		fmt.Fprintf(w, "%-5s %12.3f %12.3f %8.1fx %12.2f %12.2f %9.1f%%\n",
			r.App, r.MRSec, r.PropSec, r.Speedup, r.MRNetMB, r.PropNetMB, r.NetReductionPct)
	}
}

// ---------------------------------------------------------------- Fig 9

// Fig9Row is one delay factor of the cross-pod sweep.
type Fig9Row struct {
	DelayFactor    float64
	ObliviousSec   float64
	AwareSec       float64
	ImprovementPct float64
}

// Fig9 sweeps the simulated cross-pod delay on T2(2,1) running NR, placing
// one bisection on each delay's cluster.
func Fig9(s Scale) ([]Fig9Row, error) {
	s = s.withMemo()
	// ByName checks the machine count; the sweep then varies the one
	// parameter it does not take, the top switch's delay factor.
	if _, err := cluster.ByName("t2", s.Machines, 2, 1, s.Seed); err != nil {
		return nil, err
	}
	g := s.MakeGraph()
	var rows []Fig9Row
	for _, factor := range []float64{2, 4, 8, 16, 32, 64, 128} {
		topo := cluster.NewT2(cluster.T2Config{
			Machines: s.Machines, Pods: 2, Levels: 1, TopFactor: factor,
		})
		d, err := NewDeploymentFor(s, topo, g)
		if err != nil {
			return nil, err
		}
		app := apps.NewNR(3)
		m3, err := d.RunApp(app, O3)
		if err != nil {
			return nil, err
		}
		m4, err := d.RunApp(app, O4)
		if err != nil {
			return nil, err
		}
		rows = append(rows, Fig9Row{
			DelayFactor:    factor,
			ObliviousSec:   m3.ResponseSeconds,
			AwareSec:       m4.ResponseSeconds,
			ImprovementPct: 100 * (m3.ResponseSeconds - m4.ResponseSeconds) / m3.ResponseSeconds,
		})
	}
	return rows, nil
}

// WriteFig9 renders Figure 9.
func WriteFig9(w io.Writer, rows []Fig9Row) {
	fmt.Fprintln(w, "Figure 9: Impact of cross-pod delay factor for NR on T2(2,1)")
	fmt.Fprintf(w, "%-8s %14s %14s %12s\n", "Delay", "Oblivious (s)", "Aware (s)", "Improvement")
	for _, r := range rows {
		fmt.Fprintf(w, "%-8.0f %14.3f %14.3f %11.1f%%\n", r.DelayFactor, r.ObliviousSec, r.AwareSec, r.ImprovementPct)
	}
}

// ---------------------------------------------------------------- Fig 10

// Fig10Result summarizes the fault-tolerance experiment.
type Fig10Result struct {
	NormalSec     float64
	RecoveredSec  float64
	OverheadPct   float64
	Recoveries    int
	KilledMachine cluster.MachineID
	KillAtSec     float64
	// Timeline is the disk-I/O rate series of the recovered run.
	Timeline []IOSample
}

// IOSample is a point on Figure 10's disk-I/O-rate timeline.
type IOSample struct {
	// Time is the bucket start in virtual seconds.
	Time float64
	// DiskBytes is the disk traffic attributed to the bucket.
	DiskBytes int64
}

// Fig10 runs NR, kills one slave mid-run and reports the recovery overhead
// and the disk-I/O timeline. The experiment designs its own kill, so the
// scale's kills are dropped here; the rest of its fault plan applies to the
// baseline and the killed runs alike.
func Fig10(s Scale) (*Fig10Result, error) {
	s.Faults = withKills(s.Faults)
	d, err := NewDeployment(s)
	if err != nil {
		return nil, err
	}
	// The baseline and every probe replay NR's one plan.
	plan, base, err := d.run(apps.NewNR(3), d.PlaceBA, d.Options(O4))
	if err != nil {
		return nil, err
	}
	// Kill the most loaded machine (largest partitions — with power-law
	// hubs the critical path runs through it) mid-run. A kill landing in
	// the gap between two stages reassigns tasks before dispatch instead
	// of re-executing them, so probe kill times until one interrupts a
	// running task.
	load := make(map[cluster.MachineID]int64)
	for p, m := range d.PlaceBA.MachineOf {
		load[m] += d.PG.Parts[p].Bytes
	}
	victim := d.PlaceBA.MachineOf[0]
	for m, b := range load {
		if b > load[victim] || (b == load[victim] && m < victim) {
			victim = m
		}
	}
	// Kill times are probed as fractions of the span in which tasks
	// actually run. Under a transient-fault schedule the baseline response
	// can be dominated by retry stalls (a dropped transfer holds the stage
	// while no task runs), so probe against a fault-free reference instead.
	probeResp := base.ResponseSeconds
	if !s.Faults.Empty() {
		cm, err := engine.New(engine.Config{Topo: d.Topo, Workers: s.Workers}).RunJobs(plan)
		if err != nil {
			return nil, err
		}
		probeResp = cm.ResponseSeconds
	}
	var m engine.Metrics
	var events []trace.Event
	killAt := probeResp / 3
	found := false
	for _, frac := range []float64{0.05, 0.15, 0.25, 1.0 / 3, 0.45, 0.55, 0.65, 0.75} {
		// A probe is the deployment's own run with the kill added and a
		// recorder of its own: the search for a kill time is not part of
		// the experiment's stream, and the winner's events are its disk
		// timeline.
		cfg := d.sys.EngineConfig()
		cfg.Faults = withKills(cfg.Faults, fault.Kill{Machine: victim, At: probeResp * frac})
		cfg.HeartbeatInterval = probeResp / 20
		cfg.Trace = trace.NewRecorder()
		cm, err := engine.New(cfg).RunJobs(plan)
		if err != nil {
			return nil, err
		}
		// Keep the probe with the largest recovery impact: killing an
		// idle machine between stages shows nothing, killing a loaded one
		// mid-task shows the re-execution cost (the paper kills a slave
		// actively serving the job).
		if cm.Recoveries > 0 && (!found || cm.ResponseSeconds > m.ResponseSeconds) {
			found = true
			m, events = cm, cfg.Trace.Events()
			killAt = probeResp * frac
		}
	}
	if !found {
		return nil, fmt.Errorf("bench: failure injection produced no recoveries at any probed time")
	}
	return &Fig10Result{
		NormalSec:     base.ResponseSeconds,
		RecoveredSec:  m.ResponseSeconds,
		OverheadPct:   100 * (m.ResponseSeconds - base.ResponseSeconds) / base.ResponseSeconds,
		Recoveries:    m.Recoveries,
		KilledMachine: victim,
		KillAtSec:     killAt,
		Timeline:      diskIO(plan, events, m.ResponseSeconds/40, m.ResponseSeconds),
	}, nil
}

// withKills returns a copy of s whose kills are exactly kills.
func withKills(s *fault.Schedule, kills ...fault.Kill) *fault.Schedule {
	var c fault.Schedule
	if s != nil {
		c = *s
	}
	c.Kills = kills
	return &c
}

// diskIO buckets a run's disk traffic over [0, end] in buckets of width,
// read off the run's own events: a task reads its input when it starts and
// writes its output when it ends, with the byte counts of the planned task
// the event names (by job and task name). Events beyond end land in the
// final bucket.
func diskIO(plan []*engine.Job, events []trace.Event, width, end float64) []IOSample {
	type key struct{ job, task string }
	tasks := make(map[key]*engine.Task)
	for _, job := range plan {
		for _, st := range job.Stages {
			for _, t := range st.Tasks {
				tasks[key{job.Name, t.Name}] = t
			}
		}
	}
	out := make([]IOSample, int(end/width)+1)
	for i := range out {
		out[i].Time = float64(i) * width
	}
	for _, ev := range events {
		var bytes int64
		switch ev.Kind {
		case trace.KindTaskStart:
			bytes = tasks[key{ev.Job, ev.Name}].DiskRead
		case trace.KindTaskEnd:
			bytes = tasks[key{ev.Job, ev.Name}].DiskWrite
		default:
			continue
		}
		out[min(int(ev.Time/width), len(out)-1)].DiskBytes += bytes
	}
	return out
}

// WriteFig10 renders Figure 10.
func WriteFig10(w io.Writer, res *Fig10Result) {
	fmt.Fprintln(w, "Figure 10: Fault tolerance for NR (one slave killed mid-run)")
	fmt.Fprintf(w, "normal run:    %.3f s\n", res.NormalSec)
	fmt.Fprintf(w, "with failure:  %.3f s (machine %d killed at %.3f s, %d task recoveries)\n",
		res.RecoveredSec, res.KilledMachine, res.KillAtSec, res.Recoveries)
	fmt.Fprintf(w, "overhead:      %.1f%%\n", res.OverheadPct)
	fmt.Fprintln(w, "disk I/O rate over time (MB per bucket):")
	for _, s := range res.Timeline {
		bars := int(float64(s.DiskBytes) / 1e6 / 4)
		if bars > 60 {
			bars = 60
		}
		fmt.Fprintf(w, "  t=%8.3f %8.2f ", s.Time, float64(s.DiskBytes)/1e6)
		for i := 0; i < bars; i++ {
			fmt.Fprint(w, "#")
		}
		fmt.Fprintln(w)
	}
}

// ------------------------------------------------------------ Figs 11-12

// ScaleRow is one cluster size of the scalability sweep.
type ScaleRow struct {
	Machines int
	Vertices int
	PropSec  float64
	MRSec    float64
	Speedup  float64
}

// Fig11And12 grows machines and graph together (8→Machines) and reports
// P-Surfer and MapReduce response times for NR.
func Fig11And12(s Scale) ([]ScaleRow, error) {
	if s.Machines < 8 {
		return nil, fmt.Errorf("bench: figures 11-12 grow the cluster from 8 machines in steps of 8, got Machines = %d", s.Machines)
	}
	var rows []ScaleRow
	for machines := 8; machines <= s.Machines; machines += 8 {
		sub := s
		sub.Machines = machines
		sub.Vertices = s.Vertices * machines / s.Machines
		d, err := NewDeployment(sub)
		if err != nil {
			return nil, err
		}
		app := apps.NewNR(3)
		mp, err := d.RunApp(app, O4)
		if err != nil {
			return nil, err
		}
		mm, err := d.RunAppMR(app)
		if err != nil {
			return nil, err
		}
		rows = append(rows, ScaleRow{
			Machines: machines,
			Vertices: sub.Vertices,
			PropSec:  mp.ResponseSeconds,
			MRSec:    mm.ResponseSeconds,
			Speedup:  mm.ResponseSeconds / mp.ResponseSeconds,
		})
	}
	return rows, nil
}

// WriteFig11And12 renders Figures 11 and 12.
func WriteFig11And12(w io.Writer, rows []ScaleRow) {
	fmt.Fprintln(w, "Figures 11-12: Scalability of NR with machines and graph grown together")
	fmt.Fprintf(w, "%-9s %10s %14s %14s %9s\n", "Machines", "Vertices", "P-Surfer (s)", "MapReduce (s)", "Speedup")
	for _, r := range rows {
		fmt.Fprintf(w, "%-9d %10d %14.3f %14.3f %8.1fx\n", r.Machines, r.Vertices, r.PropSec, r.MRSec, r.Speedup)
	}
}

// ---------------------------------------------------------- §6.3 cascade

// CascadeResult summarizes the multi-iteration cascaded propagation study.
type CascadeResult struct {
	Iterations     int
	VkRatioPct     float64 // fraction of vertices in V_k, k >= 2
	MinDiameter    int
	PlainSec       float64
	CascadedSec    float64
	TimeSavingPct  float64
	PlainDiskMB    float64
	CascadedDiskMB float64
	DiskSavingPct  float64
}

// Cascade runs NR for several iterations with and without cascading.
//
// Cascading pays off only when some vertices sit several hops away from any
// cross-partition in-edge ("the performance improvement of cascaded
// propagation highly depends on the structure of the graph", §6.3). The
// hub-overlay social graph has essentially no such vertices, so this
// experiment uses the paper's pure stitched small-world generator with a
// low rewire ratio, where V_k (k>=2) is materially populated.
func Cascade(s Scale, iterations int) (*CascadeResult, error) {
	if iterations < 1 {
		return nil, fmt.Errorf("bench: the cascade study needs at least one iteration, got Iterations = %d", iterations)
	}
	topo, err := cluster.ByName("t1", s.Machines, 0, 0, s.Seed)
	if err != nil {
		return nil, err
	}
	g := s.memoGraph("cascade", func(s Scale) *graph.Graph {
		swCfg := graph.DefaultSmallWorld(s.Vertices, s.Seed)
		swCfg.RewireRatio = 0.01
		swCfg.Beta = 0.05
		return graph.SmallWorld(swCfg)
	})
	d, err := NewDeploymentFor(s, topo, g)
	if err != nil {
		return nil, err
	}
	ci := propagation.AnalyzeCascade(d.PG)
	prog := apps.NRProgram(d.Graph)
	opt := d.Options(O4)

	stA := propagation.NewState[float64](d.PG, prog)
	_, plain, err := propagation.RunIterations(d.Runner(), d.PG, d.PlaceBA, prog, stA, opt, iterations)
	if err != nil {
		return nil, err
	}
	stB := propagation.NewState[float64](d.PG, prog)
	_, casc, err := propagation.RunCascaded(d.Runner(), d.PG, d.PlaceBA, prog, stB, opt, iterations, ci)
	if err != nil {
		return nil, err
	}
	return &CascadeResult{
		Iterations:     iterations,
		VkRatioPct:     100 * ci.VkRatio(2),
		MinDiameter:    ci.MinDiameter,
		PlainSec:       plain.ResponseSeconds,
		CascadedSec:    casc.ResponseSeconds,
		TimeSavingPct:  100 * (plain.ResponseSeconds - casc.ResponseSeconds) / plain.ResponseSeconds,
		PlainDiskMB:    float64(plain.DiskBytes) / 1e6,
		CascadedDiskMB: float64(casc.DiskBytes) / 1e6,
		DiskSavingPct:  100 * float64(plain.DiskBytes-casc.DiskBytes) / float64(plain.DiskBytes),
	}, nil
}

// WriteCascade renders the cascaded propagation study.
func WriteCascade(w io.Writer, res *CascadeResult) {
	fmt.Fprintln(w, "Cascaded propagation (NR, §6.3 multi-iteration study)")
	fmt.Fprintf(w, "iterations: %d   V_k (k>=2) ratio: %.1f%%   d_min: %d\n", res.Iterations, res.VkRatioPct, res.MinDiameter)
	fmt.Fprintf(w, "response:  plain %.3f s   cascaded %.3f s   saving %.1f%%\n", res.PlainSec, res.CascadedSec, res.TimeSavingPct)
	fmt.Fprintf(w, "disk I/O:  plain %.2f MB  cascaded %.2f MB  saving %.1f%%\n", res.PlainDiskMB, res.CascadedDiskMB, res.DiskSavingPct)
}
