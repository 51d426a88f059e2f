// Package core assembles the Surfer system (§3, Figure 1): given a data
// graph and a cluster topology, it bisects the graph, places the partitions on
// the machines by the bandwidth-aware sketch walk with three-way replication,
// and creates the engine runners propagation and MapReduce jobs run on. It is
// the engine room behind the public surfer package.
package core

import (
	"fmt"
	"math"

	"repro/internal/cluster"
	"repro/internal/engine"
	"repro/internal/fault"
	"repro/internal/graph"
	"repro/internal/partition"
	"repro/internal/propagation"
	"repro/internal/storage"
	"repro/internal/trace"
)

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
	// Seed drives every randomized choice.
	Seed int64
	// HeartbeatInterval is the failure-detection latency: 0 selects the
	// engine's 1 s, anything else must be a positive finite number of
	// virtual seconds.
	HeartbeatInterval float64
	// Workers sizes the worker pool Build partitions on and the engine's
	// compute pool for runners created by NewRunner: 0 selects GOMAXPROCS,
	// 1 forces serial execution. Results are bit-identical for every value.
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

	cfg Config
	// plans is the plan memo every system placed from this bisection
	// shares: engine jobs, never states, by what was planned.
	plans map[string][]*engine.Job
}

// Build bisects the configured graph and places it: validate, RecursiveBisect,
// storage.Build, then Place on the configured topology.
func Build(cfg Config) (*System, error) {
	if cfg.Graph == nil {
		return nil, fmt.Errorf("core: config requires Graph and Topology")
	}
	if err := checkRun(cfg); err != nil {
		return nil, err
	}
	levels := cfg.Levels
	if levels == 0 && cfg.MemoryBudget > 0 {
		levels, _ = partition.ChoosePartitionCount(cfg.Graph.SizeBytes(), cfg.MemoryBudget)
	}
	// 2^levels must be a partition count: representable (PartID is 32-bit)
	// and, beyond the single partition, no larger than the vertex count.
	if n := cfg.Graph.NumVertices(); levels < 0 || levels > 30 || levels > 0 && 1<<levels > n {
		return nil, fmt.Errorf("core: Config.Levels = %d out of range: 2^Levels partitions need 0 <= Levels <= 30 and at most the graph's %d vertices", levels, n)
	}
	pt, sk := partition.RecursiveBisect(cfg.Graph, levels, partition.Options{Seed: cfg.Seed, Workers: cfg.Workers})
	pg, err := storage.Build(cfg.Graph, pt)
	if err != nil {
		return nil, err
	}
	return (&System{Graph: cfg.Graph, PG: pg, Sketch: sk, plans: map[string][]*engine.Job{}}).Place(cfg)
}

// Place deploys the system's bisection (graph, sketch and partitioned graph,
// shared) on cfg's topology with cfg's run configuration: sketch placement,
// replicas seeded with cfg.Seed, the fault plan checked against both. Build
// ends here; cfg's Graph, Levels and MemoryBudget are not read.
func (s *System) Place(cfg Config) (*System, error) {
	if err := checkRun(cfg); err != nil {
		return nil, err
	}
	pl := partition.SketchPlacement(s.Sketch, cfg.Topology)
	if err := pl.Validate(cfg.Topology); err != nil {
		return nil, err
	}
	sys := &System{
		Graph: s.Graph, Topology: cfg.Topology, PG: s.PG, Sketch: s.Sketch,
		Placement: pl, Replicas: storage.PlaceReplicas(pl, cfg.Topology, cfg.Seed), cfg: cfg, plans: s.plans,
	}
	if err := engine.ValidateKills(cfg.Faults, sys.Replicas); err != nil {
		return nil, err
	}
	return sys, nil
}

// Plan returns the jobs plan computes for program on placement pl under opt,
// calling plan only the first time a system of this bisection is asked for
// them (a failed plan is not kept). A plan is a pure function of these, and
// the engine only reads plans, so a kept plan replays exactly. The key is the
// placement's machines, program's value as %#v (type and contents, through a
// pointer) and opt. Like a runner, a system plans from one goroutine at a time.
func (s *System) Plan(pl *partition.Placement, program any, opt propagation.Options, plan func() ([]*engine.Job, error)) ([]*engine.Job, error) {
	k := fmt.Sprintf("%v %#v %+v", pl.MachineOf, program, opt)
	if jobs, ok := s.plans[k]; ok {
		return jobs, nil
	}
	jobs, err := plan()
	if err == nil {
		s.plans[k] = jobs
	}
	return jobs, err
}

// Plans reports how many plans the bisection's memo holds, each computed once.
func (s *System) Plans() int { return len(s.plans) }

// checkRun validates cfg's run configuration against its topology, so a bad
// heartbeat or fault window fails before any bisecting, not mid-run.
func checkRun(cfg Config) error {
	if cfg.Topology == nil {
		return fmt.Errorf("core: config requires Graph and Topology")
	}
	if h := cfg.HeartbeatInterval; !(h >= 0) || math.IsInf(h, 1) {
		return fmt.Errorf("core: Config.HeartbeatInterval = %g: want 0 (the 1 s default) or a positive finite number of virtual seconds", h)
	}
	return cfg.Faults.Validate(cfg.Topology.NumMachines())
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

// InnerEdgeRatio reports the partitioning quality metric of Table 5.
func (s *System) InnerEdgeRatio() float64 {
	return partition.InnerEdgeRatio(s.Graph, s.PG.Part)
}
