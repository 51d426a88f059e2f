package bench

import (
	"io"
	"os"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/partition"
)

// TestNewDeploymentForRejectsBadLevels: deployments are assembled by
// core.Build, so its Levels check reaches every tool built on them.
func TestNewDeploymentForRejectsBadLevels(t *testing.T) {
	s := Scale{Vertices: 1024, Machines: 8, Seed: 42}
	g := s.MakeGraph()
	topo := cluster.NewT1(s.Machines)
	for _, levels := range []int{-1, 31, 12} {
		s.Levels = levels
		_, err := NewDeploymentFor(s, topo, g)
		if err == nil || !strings.Contains(err.Error(), "Levels") {
			t.Errorf("levels %d on 1024 vertices: err = %v, want one naming Levels", levels, err)
		}
	}
}

// TestDeploymentsShareOneBisection: within one experiment table, Table 1
// and every deployment of the scale's graph — tables 2–3, fig6's
// four topologies, fig7, fig9's seven delay factors, fig10, fig11's full-size
// step and ablation's two clusters — come from one graph and one bisection:
// one *storage.PartitionedGraph, whatever the topology.
func TestDeploymentsShareOneBisection(t *testing.T) {
	p := Params{Scale: TestScale().withMemo(), Iterations: 2}
	m := p.Scale.shared
	for _, e := range Experiments() {
		switch e.Name {
		case "table1", "table2", "fig6", "fig7", "fig9", "fig10", "fig11", "ablation": // table3 renders table2's grid
		default:
			continue
		}
		// On its own, the experiment takes its graph and bisection from the
		// memo it is handed; in the table, from the one every row shares.
		own := p
		own.Scale.shared = newMemo()
		for _, run := range []Params{own, p} {
			if _, err := e.Run(run, io.Discard); err != nil {
				t.Fatalf("%s: %v", e.Name, err)
			}
			if got := run.Scale.shared; len(got.graphs) != 1 || len(got.bisections) != 1 {
				t.Fatalf("%s: %d graphs and %d bisections in the memo, want 1 and 1", e.Name, len(got.graphs), len(got.bisections))
			}
		}
	}
	g := p.Scale.MakeGraph()
	first := m.bisections[bisectKey{g, p.Scale.Levels, p.Scale.Seed}]
	if first == nil {
		t.Fatal("the one bisection is not of the scale's graph")
	}
	topos, err := p.Scale.Topologies()
	if err != nil {
		t.Fatal(err)
	}
	for _, topo := range topos {
		d, err := NewDeploymentFor(p.Scale, topo, g)
		if err != nil {
			t.Fatal(err)
		}
		if d.PG != first.PG || d.sys.Sketch != first.Sketch {
			t.Errorf("%s: the deployment re-bisected the shared graph", topo.Name())
		}
	}
	if len(m.bisections) != 1 {
		t.Errorf("deploying on %d more topologies bisected again: %d bisections", len(topos), len(m.bisections))
	}
}

// TestCascadeBisectsOnce: the cascade study's small-world graph is kept in
// the scale's memo like the social graph, so running its row twice on one
// memo bisects once.
func TestCascadeBisectsOnce(t *testing.T) {
	p := Params{Scale: TestScale().withMemo(), Iterations: 2}
	for _, e := range Experiments() {
		if e.Name != "cascade" {
			continue
		}
		for run := 1; run <= 2; run++ {
			if _, err := e.Run(p, io.Discard); err != nil {
				t.Fatal(err)
			}
			if n := len(p.Scale.shared.bisections); n != 1 {
				t.Fatalf("run %d: %d bisections in the memo, want 1", run, n)
			}
		}
	}
}

func TestTable1Shapes(t *testing.T) {
	rows, err := Table1(TestScale())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 {
		t.Fatalf("rows = %d, want 5 topologies", len(rows))
	}
	for _, r := range rows {
		if r.ParMetisSec <= 0 || r.BandwidthSec <= 0 {
			t.Fatalf("%s: non-positive times %+v", r.Topology, r)
		}
		switch r.Topology {
		case "T1":
			// On an even network the two algorithms should be close;
			// the staging penalty keeps the baseline slightly slower.
			if r.ImprovementPct < 0 || r.ImprovementPct > 40 {
				t.Errorf("T1 improvement %.1f%%, want small", r.ImprovementPct)
			}
		case "T3":
			// Heterogeneous NICs: under elapsed-time-is-the-straggler
			// semantics the slow half bounds both algorithms' exchange,
			// so only the staging penalty separates them — a small but
			// positive win (the paper's larger T3 gain is discussed in
			// EXPERIMENTS.md).
			if r.ImprovementPct < 1 {
				t.Errorf("T3 improvement %.1f%%, want positive", r.ImprovementPct)
			}
		default:
			// Tree topologies: the headline claim.
			if r.ImprovementPct < 15 {
				t.Errorf("%s improvement %.1f%%, want substantial", r.Topology, r.ImprovementPct)
			}
		}
	}
	WriteTable1(os.Stderr, rows)
}

// TestTable1PricesOneBisection: both columns of Table 1 price the scale's
// one bisection, so the baseline averages only its five random machine draws
// (seeds Seed+1 … Seed+5) and the bandwidth-aware column is the first draw's.
func TestTable1PricesOneBisection(t *testing.T) {
	s := TestScale().withMemo()
	rows, err := Table1(s)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.shared.bisections) != 1 {
		t.Fatalf("%d bisections in the memo, want 1", len(s.shared.bisections))
	}
	g := s.MakeGraph()
	sys := s.shared.bisections[bisectKey{g, s.Levels, s.Seed}]
	topos, err := s.Topologies()
	if err != nil {
		t.Fatal(err)
	}
	for i, topo := range topos {
		var ba, pm float64
		for k := int64(1); k <= 5; k++ {
			aware, baseline := partition.PartitioningTime(g, sys.Sketch, topo, s.Seed+k)
			if k == 1 {
				ba = aware
			}
			pm += baseline
		}
		pm /= 5
		if r := rows[i]; r.ParMetisSec != pm || r.BandwidthSec != ba {
			t.Errorf("%s: ParMetis-like %g, bandwidth aware %g; want %g and %g on the scale's bisection", r.Topology, r.ParMetisSec, r.BandwidthSec, pm, ba)
		}
	}
}

// TestTable5DeploysThroughTheMemo: after table1 and table5 run on one memo,
// it holds the scale's bisection, which table1 made and table5 reused, and
// one of each other partition count table5 sweeps, whose inner-edge ratio is
// the row's.
func TestTable5DeploysThroughTheMemo(t *testing.T) {
	s := TestScale().withMemo()
	if _, err := Table1(s); err != nil {
		t.Fatal(err)
	}
	g := s.MakeGraph()
	own := s.shared.bisections[bisectKey{g, s.Levels, s.Seed}]
	rows, err := Table5(s)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 || len(s.shared.bisections) != 4 || s.shared.bisections[bisectKey{g, s.Levels, s.Seed}] != own {
		t.Fatalf("%d rows and %d bisections in the memo, want 4 and 4 with table1's kept", len(rows), len(s.shared.bisections))
	}
	for i, r := range rows {
		sys := s.shared.bisections[bisectKey{g, s.Levels + 1 - i, s.Seed}]
		if sys == nil || r.Partitions != sys.PG.Part.P || r.IerOursPct != 100*partition.InnerEdgeRatio(g, sys.PG.Part) {
			t.Errorf("%d partitions: the row is not the memo's bisection", r.Partitions)
		}
	}
}

func TestTables23Shapes(t *testing.T) {
	cells, err := Tables23(TestScale())
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 24 {
		t.Fatalf("cells = %d, want 6 apps x 4 levels", len(cells))
	}
	get := func(app string, lvl OptLevel) AppLevelMetrics {
		for _, c := range cells {
			if c.App == app && c.Level == lvl {
				return c
			}
		}
		t.Fatalf("missing cell %s %v", app, lvl)
		return AppLevelMetrics{}
	}
	for _, app := range []string{"RS", "NR", "RLG", "TFL"} {
		o1 := get(app, O1).Metrics
		o3 := get(app, O3).Metrics
		if o3.ResponseSeconds >= o1.ResponseSeconds {
			t.Errorf("%s: O3 response %.4f >= O1 %.4f", app, o3.ResponseSeconds, o1.ResponseSeconds)
		}
		// O3 vs O1 holds the placement fixed, isolating the local
		// optimizations: network and disk must both shrink. (O4 vs O1
		// network is noisy at test scale: the placements co-locate
		// different partition pairs.)
		if o3.NetworkBytes >= o1.NetworkBytes {
			t.Errorf("%s: O3 network %d >= O1 %d", app, o3.NetworkBytes, o1.NetworkBytes)
		}
		if o3.DiskBytes >= o1.DiskBytes {
			t.Errorf("%s: O3 disk %d >= O1 %d", app, o3.DiskBytes, o1.DiskBytes)
		}
	}
}

func TestTable4Counts(t *testing.T) {
	rows, err := Table4()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.PropagationLoC <= 0 || r.MapReduceLoC <= 0 {
			t.Fatalf("%s: zero LoC %+v", r.App, r)
		}
		// The programmability claim: propagation UDFs are not bigger
		// than MapReduce UDFs (the paper's ratio is far larger because
		// its MR code handles partition plumbing by hand).
		if r.App != "VDD" && r.PropagationLoC > r.MapReduceLoC+10 {
			t.Errorf("%s: propagation %d lines much bigger than MR %d", r.App, r.PropagationLoC, r.MapReduceLoC)
		}
	}
}

func TestTable5Shapes(t *testing.T) {
	rows, err := Table5(TestScale())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) < 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	// Monotonicity: fewer partitions -> higher ier; ours >> random.
	for i := 1; i < len(rows); i++ {
		if rows[i].Partitions >= rows[i-1].Partitions {
			t.Fatal("rows not ordered by decreasing partition count")
		}
		if rows[i].IerOursPct < rows[i-1].IerOursPct {
			t.Errorf("ier not monotone: %.1f%% at P=%d vs %.1f%% at P=%d",
				rows[i].IerOursPct, rows[i].Partitions, rows[i-1].IerOursPct, rows[i-1].Partitions)
		}
	}
	for _, r := range rows {
		// Random partitioning's ier is ~1/P; ours should beat it by a
		// wide margin at every granularity (Table 5's sanity check).
		if r.IerOursPct < r.IerRandomPct+30 {
			t.Errorf("P=%d: ours %.1f%% not >> random %.1f%%", r.Partitions, r.IerOursPct, r.IerRandomPct)
		}
	}
}

func TestFig6Shapes(t *testing.T) {
	rows, err := Fig6(TestScale())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 8 { // 4 non-T1 topologies x 2 apps
		t.Fatalf("rows = %d, want 8", len(rows))
	}
	for _, r := range rows {
		if r.Topology == "T3" {
			// On T3 the sketch layout concentrates heavy sibling traffic
			// onto the slow half's NICs; a balanced-random spread can tie
			// or slightly win at test scale (see EXPERIMENTS.md).
			if r.ImprovementPct < -25 {
				t.Errorf("T3/%s: aware layout badly worse (%.1f%%)", r.App, r.ImprovementPct)
			}
			continue
		}
		if r.ImprovementPct <= 0 {
			t.Errorf("%s/%s: aware layout not better (%.1f%%)", r.Topology, r.App, r.ImprovementPct)
		}
	}
}

func TestFig7Shapes(t *testing.T) {
	rows, err := Fig7(TestScale())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.App == "VDD" {
			// Propagation emulates MR here; parity expected.
			if r.Speedup < 0.3 || r.Speedup > 3 {
				t.Errorf("VDD speedup %.2f out of parity band", r.Speedup)
			}
			continue
		}
		if r.Speedup <= 1 {
			t.Errorf("%s: propagation not faster (%.2fx)", r.App, r.Speedup)
		}
		if r.NetReductionPct <= 0 {
			t.Errorf("%s: no network reduction (%.1f%%)", r.App, r.NetReductionPct)
		}
	}
}

func TestFig9Shapes(t *testing.T) {
	rows, err := Fig9(TestScale())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 7 {
		t.Fatalf("rows = %d", len(rows))
	}
	// The paper's finding: improvement grows with the delay factor.
	if rows[len(rows)-1].ImprovementPct <= rows[0].ImprovementPct {
		t.Errorf("improvement did not grow with delay: %.1f%% at %g vs %.1f%% at %g",
			rows[0].ImprovementPct, rows[0].DelayFactor,
			rows[len(rows)-1].ImprovementPct, rows[len(rows)-1].DelayFactor)
	}
}

func TestFig10Shapes(t *testing.T) {
	res, err := Fig10(TestScale())
	if err != nil {
		t.Fatal(err)
	}
	if res.RecoveredSec < res.NormalSec {
		t.Errorf("recovery run (%.4f) faster than normal (%.4f)", res.RecoveredSec, res.NormalSec)
	}
	if res.OverheadPct > 100 {
		t.Errorf("overhead %.1f%% implausibly large", res.OverheadPct)
	}
	if res.Recoveries < 1 {
		t.Error("no recoveries recorded")
	}
	if len(res.Timeline) == 0 {
		t.Error("empty timeline")
	}
}

func TestFig11And12Shapes(t *testing.T) {
	rows, err := Fig11And12(TestScale())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 { // TestScale has 8 machines: single point
		t.Fatalf("rows = %d", len(rows))
	}
	if rows[0].Speedup <= 1 {
		t.Errorf("MR speedup %.2f <= 1", rows[0].Speedup)
	}
}

func TestCascadeShapes(t *testing.T) {
	res, err := Cascade(TestScale(), 3)
	if err != nil {
		t.Fatal(err)
	}
	if res.DiskSavingPct < 0 {
		t.Errorf("cascading increased disk: %.1f%%", res.DiskSavingPct)
	}
	if res.CascadedSec > res.PlainSec*1.001 {
		t.Errorf("cascading slowed the run: %.4f vs %.4f", res.CascadedSec, res.PlainSec)
	}
}

func TestRenderersProduceOutput(t *testing.T) {
	s := TestScale()
	var sb strings.Builder
	if rows, err := Table1(s); err == nil {
		WriteTable1(&sb, rows)
	} else {
		t.Fatal(err)
	}
	if rows, err := Table5(s); err == nil {
		WriteTable5(&sb, rows)
	} else {
		t.Fatal(err)
	}
	if rows, err := Table4(); err == nil {
		WriteTable4(&sb, rows)
	} else {
		t.Fatal(err)
	}
	for _, want := range []string{"Table 1", "Table 5", "Table 4", "T2(2,1)", "Propagation"} {
		if !strings.Contains(sb.String(), want) {
			t.Errorf("rendered output missing %q", want)
		}
	}
}

func TestFigureRenderersProduceOutput(t *testing.T) {
	s := TestScale()
	var sb strings.Builder
	if rows, err := Fig6(s); err == nil {
		WriteFig6(&sb, rows)
	} else {
		t.Fatal(err)
	}
	if rows, err := Fig7(s); err == nil {
		WriteFig7(&sb, rows)
	} else {
		t.Fatal(err)
	}
	if rows, err := Fig9(s); err == nil {
		WriteFig9(&sb, rows)
	} else {
		t.Fatal(err)
	}
	if res, err := Fig10(s); err == nil {
		WriteFig10(&sb, res)
	} else {
		t.Fatal(err)
	}
	if rows, err := Fig11And12(s); err == nil {
		WriteFig11And12(&sb, rows)
	} else {
		t.Fatal(err)
	}
	if res, err := Cascade(s, 3); err == nil {
		WriteCascade(&sb, res)
	} else {
		t.Fatal(err)
	}
	if cells, err := Tables23(s); err == nil {
		WriteTable2(&sb, cells)
		WriteTable3(&sb, cells)
	} else {
		t.Fatal(err)
	}
	for _, want := range []string{"Figure 6", "Figure 7", "Figure 9", "Figure 10", "Figures 11-12", "Cascaded", "Table 2", "Table 3"} {
		if !strings.Contains(sb.String(), want) {
			t.Errorf("rendered output missing %q", want)
		}
	}
}

func TestExperimentsDeterministic(t *testing.T) {
	s := TestScale()
	a, err := Fig7(s)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Fig7(s)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("Fig7 row %d differs between runs", i)
		}
	}
	t1a, err := Table1(s)
	if err != nil {
		t.Fatal(err)
	}
	t1b, err := Table1(s)
	if err != nil {
		t.Fatal(err)
	}
	for i := range t1a {
		if t1a[i] != t1b[i] {
			t.Fatalf("Table1 row %d differs between runs", i)
		}
	}
}
