package core

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/engine"
	"repro/internal/fault"
	"repro/internal/graph"
	"repro/internal/partition"
	"repro/internal/propagation"
	"repro/internal/storage"
	"repro/internal/trace"
)

func testConfig(seed int64) Config {
	return Config{
		Graph:    graph.SmallWorld(graph.DefaultSmallWorld(1500, seed)),
		Topology: cluster.NewT2(cluster.T2Config{Machines: 8, Pods: 2, Levels: 1}),
		Levels:   3,
		Seed:     seed,
	}
}

// TestPlaceMatchesBuild: one bisection serves every topology. Placing a built
// system on another topology shares its partitioned graph and sketch, and is
// the system Build assembles there from the same inputs; the run
// configuration is validated against the new topology.
func TestPlaceMatchesBuild(t *testing.T) {
	cfg := testConfig(1)
	sys, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, topo := range []*cluster.Topology{cfg.Topology, cluster.NewT1(8), cluster.NewT3(16, 1), cluster.NewT1(3)} {
		c := cfg
		c.Topology = topo
		placed, err := sys.Place(c)
		if err != nil {
			t.Fatalf("%s: %v", topo.Name(), err)
		}
		if placed.PG != sys.PG || placed.Sketch != sys.Sketch || placed.Graph != sys.Graph {
			t.Errorf("%s: Place copied the bisection instead of sharing it", topo.Name())
		}
		built, err := Build(c)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(placed.PG.Part, built.PG.Part) || !reflect.DeepEqual(placed.Placement, built.Placement) ||
			!reflect.DeepEqual(placed.Replicas, built.Replicas) || !reflect.DeepEqual(placed.EngineConfig(), built.EngineConfig()) {
			t.Errorf("%s: Place and Build disagree", topo.Name())
		}
		if placed.PG.Part.P != 8 {
			t.Fatalf("%s: P = %d", topo.Name(), placed.PG.Part.P)
		}
		if err := placed.PG.Validate(); err != nil {
			t.Fatalf("%s: %v", topo.Name(), err)
		}
		if err := placed.Replicas.Validate(topo); err != nil {
			t.Fatalf("%s: %v", topo.Name(), err)
		}
	}
	c := cfg
	c.Topology = cluster.NewT1(4)
	c.Faults = &fault.Schedule{Kills: []fault.Kill{{Machine: 6, At: 1}}}
	if _, err := sys.Place(c); err == nil {
		t.Error("Place accepted a kill outside its topology")
	}
}

// TestBuildAllStrategies: every layout the experiments compare deploys from
// the parts Build exposes — the bandwidth-aware system itself, the baseline's
// random placement of the same bisection, and a random partitioning.
func TestBuildAllStrategies(t *testing.T) {
	cfg := testConfig(1)
	sys, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rnd, err := storage.Build(sys.Graph, partition.Random(sys.Graph, sys.PG.Part.P, cfg.Seed))
	if err != nil {
		t.Fatal(err)
	}
	pm := partition.RandomPlacement(sys.PG.Part.P, cfg.Topology, cfg.Seed+1)
	for _, d := range []struct {
		name string
		pg   *storage.PartitionedGraph
		pl   *partition.Placement
	}{{"bandwidth-aware", sys.PG, sys.Placement}, {"parmetis", sys.PG, pm}, {"random", rnd, pm}} {
		if d.pg.Part.P != 8 {
			t.Fatalf("%s: P = %d", d.name, d.pg.Part.P)
		}
		if err := d.pg.Validate(); err != nil {
			t.Fatalf("%s: %v", d.name, err)
		}
		if err := d.pl.Validate(cfg.Topology); err != nil {
			t.Fatalf("%s: %v", d.name, err)
		}
		if err := storage.PlaceReplicas(d.pl, cfg.Topology, cfg.Seed).Validate(cfg.Topology); err != nil {
			t.Fatalf("%s: %v", d.name, err)
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
	sys, err := Build(testConfig(3))
	if err != nil {
		t.Fatal(err)
	}
	rnd := partition.InnerEdgeRatio(sys.Graph, partition.Random(sys.Graph, sys.PG.Part.P, 3))
	if sys.InnerEdgeRatio() <= rnd {
		t.Fatalf("bandwidth-aware ier %.3f <= random %.3f", sys.InnerEdgeRatio(), rnd)
	}
}

// TestPartitioningTimeOrdering: priced on the system's own bisection and
// topology, the bandwidth-aware run beats the oblivious baseline on T2.
func TestPartitioningTimeOrdering(t *testing.T) {
	sys, err := Build(testConfig(4))
	if err != nil {
		t.Fatal(err)
	}
	tBA, tPM := partition.DefaultCostModel().PartitioningTime(sys.Graph, sys.Sketch, sys.Topology, 5)
	if tBA <= 0 || tPM <= tBA {
		t.Fatalf("partitioning times BA=%.3f PM=%.3f", tBA, tPM)
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
	sys, err := Build(testConfig(5))
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
	sys, err := Build(testConfig(6))
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
	cfg := testConfig(7)
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
	cfg := testConfig(7)
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

// TestBuildRejectsBadLevels: a level count that is negative, overflows the
// partition count or asks for more partitions than vertices is a Build error
// naming the field — not a shift panic in the partitioner.
func TestBuildRejectsBadLevels(t *testing.T) {
	for _, levels := range []int{-1, -64, 11, 31, 63, 64, 1 << 20} {
		cfg := testConfig(8) // 1500 vertices
		cfg.Levels = levels
		_, err := Build(cfg)
		if err == nil || !strings.Contains(err.Error(), "Config.Levels") {
			t.Errorf("Levels=%d: err = %v, want one naming Config.Levels", levels, err)
		}
	}
	cfg := testConfig(8)
	cfg.Levels = 10 // 1024 partitions of 1500 vertices: the last level that fits
	if _, err := Build(cfg); err != nil {
		t.Errorf("Levels=10 on 1500 vertices: %v", err)
	}
}

// TestBuildRejectsBadHeartbeat: a heartbeat the engine would silently
// replace (negative) or carry into every recovery time (NaN, +Inf) is a Build
// error naming the field; zero keeps the default.
func TestBuildRejectsBadHeartbeat(t *testing.T) {
	for _, h := range []float64{-1, math.NaN(), math.Inf(1), math.Inf(-1)} {
		cfg := testConfig(8)
		cfg.HeartbeatInterval = h
		if _, err := Build(cfg); err == nil || !strings.Contains(err.Error(), "Config.HeartbeatInterval") {
			t.Errorf("HeartbeatInterval=%g: err = %v, want one naming Config.HeartbeatInterval", h, err)
		}
	}
	for _, h := range []float64{0, 0.25} {
		cfg := testConfig(8)
		cfg.HeartbeatInterval = h
		if _, err := Build(cfg); err != nil {
			t.Errorf("HeartbeatInterval=%g: %v", h, err)
		}
	}
}
