package core

import (
	"math"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/engine"
	"repro/internal/fault"
	"repro/internal/graph"
	"repro/internal/partition"
	"repro/internal/propagation"
	"repro/internal/trace"
)

func testConfig(seed int64, strat PartitionStrategy) Config {
	return Config{
		Graph:    graph.SmallWorld(graph.DefaultSmallWorld(1500, seed)),
		Topology: cluster.NewT2(cluster.T2Config{Machines: 8, Pods: 2, Levels: 1}),
		Levels:   3,
		Strategy: strat,
		Seed:     seed,
	}
}

func TestBuildAllStrategies(t *testing.T) {
	for _, strat := range []PartitionStrategy{StrategyBandwidthAware, StrategyParMetis, StrategyRandom} {
		sys, err := Build(testConfig(1, strat))
		if err != nil {
			t.Fatalf("%v: %v", strat, err)
		}
		if sys.PG.Part.P != 8 {
			t.Fatalf("%v: P = %d", strat, sys.PG.Part.P)
		}
		if err := sys.PG.Validate(); err != nil {
			t.Fatalf("%v: %v", strat, err)
		}
		if err := sys.Replicas.Validate(sys.Topology); err != nil {
			t.Fatalf("%v: %v", strat, err)
		}
	}
}

func TestBuildRejectsMissingInputs(t *testing.T) {
	if _, err := Build(Config{}); err == nil {
		t.Fatal("expected error for empty config")
	}
	if _, err := Build(Config{Graph: graph.Ring(4)}); err == nil {
		t.Fatal("expected error for missing topology")
	}
}

func TestBuildAutoSizesPartitions(t *testing.T) {
	g := graph.SmallWorld(graph.DefaultSmallWorld(1000, 2))
	cfg := Config{
		Graph:        g,
		Topology:     cluster.NewT1(4),
		MemoryBudget: g.SizeBytes() / 3, // needs 4 partitions
		Seed:         2,
	}
	sys, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if sys.PG.Part.P != 4 {
		t.Fatalf("auto P = %d, want 4", sys.PG.Part.P)
	}
}

func TestInnerEdgeRatioOrdering(t *testing.T) {
	ba, err := Build(testConfig(3, StrategyBandwidthAware))
	if err != nil {
		t.Fatal(err)
	}
	rnd, err := Build(testConfig(3, StrategyRandom))
	if err != nil {
		t.Fatal(err)
	}
	if ba.InnerEdgeRatio() <= rnd.InnerEdgeRatio() {
		t.Fatalf("bandwidth-aware ier %.3f <= random %.3f", ba.InnerEdgeRatio(), rnd.InnerEdgeRatio())
	}
}

func TestPartitioningTimeOrdering(t *testing.T) {
	cm := partition.DefaultCostModel()
	ba, err := Build(testConfig(4, StrategyBandwidthAware))
	if err != nil {
		t.Fatal(err)
	}
	pm, err := Build(testConfig(4, StrategyParMetis))
	if err != nil {
		t.Fatal(err)
	}
	rnd, err := Build(testConfig(4, StrategyRandom))
	if err != nil {
		t.Fatal(err)
	}
	tBA, tPM := ba.PartitioningTime(cm), pm.PartitioningTime(cm)
	if tBA <= 0 || tPM <= tBA {
		t.Fatalf("partitioning times BA=%.3f PM=%.3f", tBA, tPM)
	}
	if rnd.PartitioningTime(cm) != 0 {
		t.Fatal("random strategy should report no partitioning time")
	}
}

// countProgram counts in-neighbors.
type countProgram struct{}

func (countProgram) Init(graph.VertexID) int64 { return 0 }
func (countProgram) Transfer(_ graph.VertexID, _ int64, dst graph.VertexID, emit propagation.Emit[int64]) {
	emit(dst, 1)
}
func (countProgram) Combine(_ graph.VertexID, _ int64, values []int64) int64 {
	var s int64
	for _, v := range values {
		s += v
	}
	return s
}
func (countProgram) Bytes(int64) int64 { return 8 }
func (countProgram) Associative() bool { return true }
func (countProgram) Merge(_ graph.VertexID, values []int64) int64 {
	var s int64
	for _, v := range values {
		s += v
	}
	return s
}

// runPropagation runs countProgram for iters iterations on a fresh runner of
// the system.
func runPropagation(sys *System, iters int, opt propagation.Options) (*propagation.State[int64], engine.Metrics, error) {
	return propagation.RunIterations(sys.NewRunner(), sys.PG, sys.Placement, countProgram{},
		propagation.NewState(sys.PG, countProgram{}), opt, iters)
}

func TestRunPropagationEndToEnd(t *testing.T) {
	sys, err := Build(testConfig(5, StrategyBandwidthAware))
	if err != nil {
		t.Fatal(err)
	}
	st, m, err := runPropagation(sys, 1, propagation.Options{LocalPropagation: true, LocalCombination: true})
	if err != nil {
		t.Fatal(err)
	}
	in := sys.Graph.InDegrees()
	for v := range in {
		if st.Values[v] != int64(in[v]) {
			t.Fatalf("value[%d] = %d, want %d", v, st.Values[v], in[v])
		}
	}
	if m.ResponseSeconds <= 0 {
		t.Fatal("no time elapsed")
	}
}

func TestRunCascadedEndToEnd(t *testing.T) {
	sys, err := Build(testConfig(6, StrategyBandwidthAware))
	if err != nil {
		t.Fatal(err)
	}
	stPlain, _, err := runPropagation(sys, 4, propagation.Options{})
	if err != nil {
		t.Fatal(err)
	}
	stCasc, _, err := propagation.RunCascaded(sys.NewRunner(), sys.PG, sys.Placement, countProgram{},
		propagation.NewState(sys.PG, countProgram{}), propagation.Options{}, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	for v := range stPlain.Values {
		if stPlain.Values[v] != stCasc.Values[v] {
			t.Fatalf("cascaded result differs at %d", v)
		}
	}
}

func TestBuildWithFailuresWiresRunner(t *testing.T) {
	cfg := testConfig(7, StrategyBandwidthAware)
	cfg.Faults = &fault.Schedule{Kills: []fault.Kill{{Machine: 0, At: 0.001}}}
	cfg.HeartbeatInterval = 0.0005
	sys, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Running with a failure must still produce correct results.
	st, _, err := runPropagation(sys, 1, propagation.Options{})
	if err != nil {
		t.Fatal(err)
	}
	in := sys.Graph.InDegrees()
	for v := range in {
		if st.Values[v] != int64(in[v]) {
			t.Fatalf("value[%d] wrong under failure", v)
		}
	}
}

// TestDrainThroughBuildChargesMigration: a drain on a system assembled by
// Build moves real bytes. NewRunner used to leave engine.Config.PartBytes
// unset, so the library path rehomed every partition in zero time and zero
// bytes while surfer-run -fail (bench.Deployment.Runner) charged
// PG.PartBytes().
func TestDrainThroughBuildChargesMigration(t *testing.T) {
	cfg := testConfig(7, StrategyBandwidthAware)
	cfg.Trace = trace.NewRecorder()
	cfg.Faults = &fault.Schedule{Drains: []fault.MachineDrain{{Machine: 3, At: 0, Deadline: 1e6}}}
	sys, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	_, m, err := runPropagation(sys, 1, propagation.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if m.Drains != 1 || m.Migrations == 0 || m.MigrationBytes <= 0 {
		t.Fatalf("drains/migrations/bytes = %d/%d/%d, want 1 drain moving > 0 bytes",
			m.Drains, m.Migrations, m.MigrationBytes)
	}
	partBytes := sys.PG.PartBytes()
	var migrated int64
	for _, ev := range cfg.Trace.Events() {
		if ev.Kind != trace.KindPartitionMigrate {
			continue
		}
		if ev.Bytes <= 0 || ev.Bytes != partBytes[ev.Part] {
			t.Errorf("partition-migrate of part %d carries %d bytes, want its %d resident bytes",
				ev.Part, ev.Bytes, partBytes[ev.Part])
		}
		migrated += ev.Bytes
	}
	if migrated != m.MigrationBytes {
		t.Errorf("partition-migrate events sum to %d bytes, Metrics.MigrationBytes = %d", migrated, m.MigrationBytes)
	}
}

func TestBuildDefaultsToSinglePartition(t *testing.T) {
	g := graph.Ring(64)
	sys, err := Build(Config{Graph: g, Topology: cluster.NewT1(2), Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if sys.PG.Part.P != 1 {
		t.Fatalf("P = %d, want 1 with no Levels/MemoryBudget", sys.PG.Part.P)
	}
}

func TestBuildUnknownStrategy(t *testing.T) {
	cfg := testConfig(8, PartitionStrategy(99))
	if _, err := Build(cfg); err == nil {
		t.Fatal("expected error for unknown strategy")
	}
}

func TestStrategyStrings(t *testing.T) {
	if StrategyBandwidthAware.String() != "bandwidth-aware" ||
		StrategyParMetis.String() != "parmetis" ||
		StrategyRandom.String() != "random" {
		t.Fatal("strategy names wrong")
	}
	if PartitionStrategy(42).String() == "" {
		t.Fatal("unknown strategy must still stringify")
	}
}

// TestBuildRejectsBadLevels: a level count that is negative, overflows the
// partition count or asks for more partitions than vertices is a Build error
// naming the field, for every strategy — not a shift panic in a partitioner.
func TestBuildRejectsBadLevels(t *testing.T) {
	for _, strat := range []PartitionStrategy{StrategyBandwidthAware, StrategyParMetis, StrategyRandom} {
		for _, levels := range []int{-1, -64, 11, 31, 63, 64, 1 << 20} {
			cfg := testConfig(8, strat) // 1500 vertices
			cfg.Levels = levels
			_, err := Build(cfg)
			if err == nil || !strings.Contains(err.Error(), "Config.Levels") {
				t.Errorf("%v, Levels=%d: err = %v, want one naming Config.Levels", strat, levels, err)
			}
		}
		cfg := testConfig(8, strat)
		cfg.Levels = 10 // 1024 partitions of 1500 vertices: the last level that fits
		if _, err := Build(cfg); err != nil {
			t.Errorf("%v, Levels=10 on 1500 vertices: %v", strat, err)
		}
	}
}

// TestBuildRejectsBadHeartbeat: a heartbeat the engine would silently
// replace (negative) or carry into every recovery time (NaN, +Inf) is a Build
// error naming the field; zero keeps the default.
func TestBuildRejectsBadHeartbeat(t *testing.T) {
	for _, h := range []float64{-1, math.NaN(), math.Inf(1), math.Inf(-1)} {
		cfg := testConfig(8, StrategyRandom)
		cfg.HeartbeatInterval = h
		if _, err := Build(cfg); err == nil || !strings.Contains(err.Error(), "Config.HeartbeatInterval") {
			t.Errorf("HeartbeatInterval=%g: err = %v, want one naming Config.HeartbeatInterval", h, err)
		}
	}
	for _, h := range []float64{0, 0.25} {
		cfg := testConfig(8, StrategyRandom)
		cfg.HeartbeatInterval = h
		if _, err := Build(cfg); err != nil {
			t.Errorf("HeartbeatInterval=%g: %v", h, err)
		}
	}
}
