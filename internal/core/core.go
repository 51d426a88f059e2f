// Package core assembles the Surfer system (§3, Figure 1): given a data
// graph and a cluster topology, it partitions the graph (bandwidth-aware or
// baseline), derives the storage placement with three-way replication, and
// creates the engine runners propagation and MapReduce jobs run on. It is the
// engine room behind the public surfer package.
package core

import (
	"fmt"
	"math"

	"repro/internal/cluster"
	"repro/internal/engine"
	"repro/internal/fault"
	"repro/internal/graph"
	"repro/internal/partition"
	"repro/internal/storage"
	"repro/internal/trace"
)

// PartitionStrategy selects how the graph is partitioned and placed.
type PartitionStrategy int

const (
	// StrategyBandwidthAware runs Algorithm 4: lockstep machine-graph and
	// data-graph bisection, sketch-guided placement.
	StrategyBandwidthAware PartitionStrategy = iota
	// StrategyParMetis runs the same bisection kernel but places
	// partitions on random machines, like ParMetis in the cloud (§6.2).
	StrategyParMetis
	// StrategyRandom assigns vertices to partitions uniformly at random
	// (the Table 5 sanity baseline) with random placement.
	StrategyRandom
)

func (s PartitionStrategy) String() string {
	switch s {
	case StrategyBandwidthAware:
		return "bandwidth-aware"
	case StrategyParMetis:
		return "parmetis"
	case StrategyRandom:
		return "random"
	default:
		return fmt.Sprintf("strategy(%d)", int(s))
	}
}

// Config describes a Surfer deployment.
type Config struct {
	// Graph is the data graph.
	Graph *graph.Graph
	// Topology is the simulated cluster.
	Topology *cluster.Topology
	// Levels is log2 of the partition count. When 0 and MemoryBudget is
	// set, the level count follows the paper's sizing rule
	// P = 2^ceil(log2(||G||/r)); when both are zero, a single partition
	// is used.
	Levels int
	// MemoryBudget is the per-machine memory in bytes for auto-sizing.
	MemoryBudget int64
	// Strategy selects the partitioner; default bandwidth-aware.
	Strategy PartitionStrategy
	// Seed drives every randomized choice.
	Seed int64
	// HeartbeatInterval is the failure-detection latency: 0 selects the
	// engine's 1 s, anything else must be a positive finite number of
	// virtual seconds.
	HeartbeatInterval float64
	// Workers sizes the engine's compute worker pool for runners created
	// by NewRunner: 0 selects GOMAXPROCS, 1 forces serial execution.
	// Results are bit-identical for every value.
	Workers int
	// Trace, when non-nil, receives the structured event stream of every
	// runner created by NewRunner: task starts/finishes, NIC transfers
	// with queueing delays, stage barriers, failures and retries. Export
	// it with trace.WriteChrome or fold it with trace.Summarize. Nil (the
	// default) disables tracing at zero cost.
	Trace *trace.Recorder
	// Faults is the fault plan of runners created by NewRunner: machine
	// kills, degraded links, dropped transfers, machine slowdowns, joins and
	// drains. Nil disables them at zero cost; the schedule is validated at
	// Build time.
	Faults *fault.Schedule
	// Retry governs dropped-transfer detection and backoff; the zero value
	// selects the defaults.
	Retry fault.RetryPolicy
	// Speculate enables backup tasks for stragglers.
	Speculate bool
}

// System is a fully assembled Surfer deployment: partitioned, placed and
// replicated, ready to run jobs.
type System struct {
	Graph     *graph.Graph
	Topology  *cluster.Topology
	PG        *storage.PartitionedGraph
	Sketch    *partition.Sketch
	Placement *partition.Placement
	Replicas  *storage.Replicas
	// Steps records the distributed-partitioning cost steps (empty for
	// StrategyRandom).
	Steps []partition.BisectStep

	cfg Config
}

// Build partitions, places and replicates the graph per the configuration.
func Build(cfg Config) (*System, error) {
	if cfg.Graph == nil || cfg.Topology == nil {
		return nil, fmt.Errorf("core: config requires Graph and Topology")
	}
	levels := cfg.Levels
	if levels == 0 && cfg.MemoryBudget > 0 {
		levels, _ = partition.ChoosePartitionCount(cfg.Graph.SizeBytes(), cfg.MemoryBudget)
	}
	if h := cfg.HeartbeatInterval; !(h >= 0) || math.IsInf(h, 1) {
		return nil, fmt.Errorf("core: Config.HeartbeatInterval = %g: want 0 (the 1 s default) or a positive finite number of virtual seconds", h)
	}
	// 2^levels must be a partition count: representable (PartID is 32-bit)
	// and, beyond the single partition, no larger than the vertex count.
	if n := cfg.Graph.NumVertices(); levels < 0 || levels > 30 || levels > 0 && 1<<levels > n {
		return nil, fmt.Errorf("core: Config.Levels = %d out of range: 2^Levels partitions need 0 <= Levels <= 30 and at most the graph's %d vertices", levels, n)
	}
	sys := &System{Graph: cfg.Graph, Topology: cfg.Topology, cfg: cfg}
	var pt *partition.Partitioning
	switch cfg.Strategy {
	case StrategyBandwidthAware, StrategyParMetis:
		run := partition.BandwidthAware
		if cfg.Strategy == StrategyParMetis {
			run = partition.ParMetisLike
		}
		res := run(cfg.Graph, cfg.Topology, levels, partition.Options{Seed: cfg.Seed})
		pt, sys.Sketch, sys.Placement, sys.Steps = res.Partitioning, res.Sketch, res.Placement, res.Steps
	case StrategyRandom:
		pt = partition.Random(cfg.Graph, 1<<levels, cfg.Seed)
		sys.Placement = partition.RandomPlacement(pt.P, cfg.Topology, cfg.Seed)
	default:
		return nil, fmt.Errorf("core: unknown strategy %v", cfg.Strategy)
	}
	var err error
	if sys.PG, err = storage.Build(cfg.Graph, pt); err != nil {
		return nil, err
	}
	if err := sys.Placement.Validate(cfg.Topology); err != nil {
		return nil, err
	}
	sys.Replicas = storage.PlaceReplicas(sys.Placement, cfg.Topology, cfg.Seed)
	// Fail fast on malformed fault plans: a bad kill schedule or fault
	// window should be a Build error, not a mid-run hang.
	if err := cfg.Faults.Validate(cfg.Topology.NumMachines()); err != nil {
		return nil, err
	}
	if err := engine.ValidateKills(cfg.Faults, sys.Replicas); err != nil {
		return nil, err
	}
	return sys, nil
}

// EngineConfig is the one place a deployment becomes an engine.Config: the
// system's topology, replicas and partition sizes with the run configuration
// it was built with. NewRunner runs it as it stands; an experiment that varies
// one run (a kill probe) edits the copy it gets.
func (s *System) EngineConfig() engine.Config {
	return engine.Config{
		Topo:              s.Topology,
		Replicas:          s.Replicas,
		PartBytes:         s.PG.PartBytes(),
		HeartbeatInterval: s.cfg.HeartbeatInterval,
		Workers:           s.cfg.Workers,
		Trace:             s.cfg.Trace,
		Faults:            s.cfg.Faults,
		Retry:             s.cfg.Retry,
		Speculate:         s.cfg.Speculate,
	}
}

// NewRunner creates a fresh engine runner over this system's topology,
// replicas and fault plan. Each experiment should use its own runner so
// clocks and metrics start at zero.
func (s *System) NewRunner() *engine.Runner { return engine.New(s.EngineConfig()) }

// PartitioningTime estimates the elapsed time of the distributed
// partitioning run itself under the given cost model (Table 1). It returns
// 0 for StrategyRandom, which records no steps.
func (s *System) PartitioningTime(cm partition.CostModel) float64 {
	if len(s.Steps) == 0 {
		return 0
	}
	res := &partition.Result{Steps: s.Steps}
	staged := s.cfg.Strategy == StrategyParMetis
	return cm.PartitioningTime(res, s.Topology, staged)
}

// InnerEdgeRatio reports the partitioning quality metric of Table 5.
func (s *System) InnerEdgeRatio() float64 {
	return partition.InnerEdgeRatio(s.Graph, s.PG.Part)
}
