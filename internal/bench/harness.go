// Package bench regenerates every table and figure of the paper's
// evaluation (§6, Appendix F) on the simulated cluster: Table 1
// (partitioning time by topology), Tables 2–3 (optimization levels O1–O4),
// Table 4 (user code size), Table 5 (partition quality), Figure 6
// (bandwidth-aware impact by topology), Figure 7 (MapReduce vs
// propagation), Figure 9 (cross-pod delay sweep), Figure 10 (fault
// tolerance), Figures 11–12 (scalability), and the §6.3 cascaded
// propagation study.
package bench

import (
	"fmt"

	"repro/internal/apps"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/fault"
	"repro/internal/graph"
	"repro/internal/partition"
	"repro/internal/propagation"
	"repro/internal/storage"
	"repro/internal/trace"
)

// Scale sizes an experiment run. The defaults mirror the paper's setup
// shrunk to laptop scale: 32 machines, 64 partitions, a stitched
// small-world graph standing in for the MSN snapshot.
type Scale struct {
	// Vertices in the synthetic data graph.
	Vertices int
	// Levels is log2 of the partition count (paper default: 64
	// partitions).
	Levels int
	// Machines in the simulated cluster (paper: 32).
	Machines int
	// Seed drives generation and partitioning.
	Seed int64
	// Workers sizes the partitioner's and the engine's worker pools (0 =
	// GOMAXPROCS, 1 = serial). Measured virtual-time results are identical
	// for every value; only wall-clock changes.
	Workers int
	// Trace, when non-nil, receives the structured event stream of every
	// run built from this scale. The stream is identical for every
	// Workers value.
	Trace *trace.Recorder
	// Heartbeat is the failure-detection latency (0 = engine default, 1s).
	Heartbeat float64
	// Faults is the fault plan of every runner built from this scale:
	// machine kills, degraded or blackholed links, machine slowdowns, joins
	// and drains. Retry tunes the dropped-transfer recovery.
	Faults *fault.Schedule
	Retry  fault.RetryPolicy

	// shared, when set, is the memo the scale's deployments share.
	shared *memo
}

// memo is what the deployments of one experiment table share: one graph per
// (generator, Vertices, Seed), and one bisection per (graph, levels, seed) —
// the first system built from them, which later deployments place. Both are
// pure functions of their keys, so sharing them changes no number.
type memo struct {
	graphs     map[graphKey]*graph.Graph
	bisections map[bisectKey]*core.System
}

// graphKey names a generated graph: its generator and the scale's size and
// seed.
type graphKey struct {
	kind     string
	vertices int
	seed     int64
}

type bisectKey struct {
	g      *graph.Graph
	levels int
	seed   int64
}

func newMemo() *memo {
	return &memo{map[graphKey]*graph.Graph{}, map[bisectKey]*core.System{}}
}

// withMemo gives s a memo of its own unless it shares one already.
func (s Scale) withMemo() Scale {
	if s.shared == nil {
		s.shared = newMemo()
	}
	return s
}

// deploy is core.Build(cfg), bisecting only the first time the memo sees
// cfg's graph, levels and seed; later deployments of them place that system.
func (m *memo) deploy(cfg core.Config) (*core.System, error) {
	if m == nil {
		return core.Build(cfg)
	}
	k := bisectKey{cfg.Graph, cfg.Levels, cfg.Seed}
	if sys := m.bisections[k]; sys != nil {
		return sys.Place(cfg)
	}
	sys, err := core.Build(cfg)
	m.bisections[k] = sys
	return sys, err
}

// TestScale is a shrunken configuration keeping test runtimes low.
func TestScale() Scale {
	return Scale{Vertices: 4096, Levels: 4, Machines: 8, Seed: 42}
}

// MakeGraph generates the data graph for a scale: the hybrid social graph
// (small-world communities + power-law hubs) standing in for the MSN
// snapshot. A scale with a memo generates each (Vertices, Seed) once.
func (s Scale) MakeGraph() *graph.Graph {
	return s.memoGraph("social", func(s Scale) *graph.Graph { return graph.Social(graph.DefaultSocial(s.Vertices, s.Seed)) })
}

// memoGraph is gen(s), generated once per scale memo and kind.
func (s Scale) memoGraph(kind string, gen func(Scale) *graph.Graph) *graph.Graph {
	if s.shared == nil {
		return gen(s)
	}
	k := graphKey{kind, s.Vertices, s.Seed}
	if s.shared.graphs[k] == nil {
		s.shared.graphs[k] = gen(s)
	}
	return s.shared.graphs[k]
}

// Topologies returns the named network settings of §6.1 at this scale,
// built by cluster.ByName so a machine count a setting cannot hold is an
// error.
func (s Scale) Topologies() ([]*cluster.Topology, error) {
	var out []*cluster.Topology
	for _, t := range []struct {
		kind             string
		pods, treeLevels int
	}{{"t1", 0, 0}, {"t2", 2, 1}, {"t2", 4, 1}, {"t2", 4, 2}, {"t3", 0, 0}} {
		topo, err := cluster.ByName(t.kind, s.Machines, t.pods, t.treeLevels, s.Seed)
		if err != nil {
			return nil, err
		}
		out = append(out, topo)
	}
	return out, nil
}

// OptLevel is one of the paper's four optimization levels (§6.3).
type OptLevel int

const (
	O1 OptLevel = iota + 1 // ParMetis layout, no local optimizations
	O2                     // sketch layout, no local optimizations
	O3                     // ParMetis layout, local optimizations
	O4                     // sketch layout, local optimizations
)

func (o OptLevel) String() string { return fmt.Sprintf("O%d", int(o)) }

// BandwidthAwareLayout reports whether the level stores partitions by the
// machine-graph sketch.
func (o OptLevel) BandwidthAwareLayout() bool { return o == O2 || o == O4 }

// LocalOpts reports whether local propagation and combination are enabled.
func (o OptLevel) LocalOpts() bool { return o == O3 || o == O4 }

// Deployment is a partitioned graph with both placements precomputed, so
// the four optimization levels can run against identical partitions.
type Deployment struct {
	Graph *graph.Graph
	PG    *storage.PartitionedGraph
	Topo  *cluster.Topology
	// PlacePM is the bandwidth-oblivious (random) placement; PlaceBA the
	// sketch-guided one.
	PlacePM *partition.Placement
	PlaceBA *partition.Placement

	// sys is core's system for the sketch-guided placement, built with the
	// scale's whole run configuration: where Runner gets its runners, and
	// with them the three-way replicas that machine deaths fail over to and
	// speculative backups run on.
	sys *core.System
}

// NewDeployment partitions the scale's graph once and derives both
// placements on T1, the flat cluster of the scale's machines.
func NewDeployment(s Scale) (*Deployment, error) {
	topo, err := cluster.ByName("t1", s.Machines, 0, 0, s.Seed)
	if err != nil {
		return nil, err
	}
	return NewDeploymentFor(s, topo, s.MakeGraph())
}

// NewDeploymentFor is NewDeployment with a caller-provided graph. The
// deployment is core's bandwidth-aware system plus the random placement the
// O1/O3 levels and MapReduce run on; deployments of one graph under one memo
// share its bisection.
func NewDeploymentFor(s Scale, topo *cluster.Topology, g *graph.Graph) (*Deployment, error) {
	sys, err := s.shared.deploy(core.Config{
		Graph: g, Topology: topo, Levels: s.Levels, Seed: s.Seed,
		HeartbeatInterval: s.Heartbeat, Workers: s.Workers, Trace: s.Trace,
		Faults: s.Faults, Retry: s.Retry,
	})
	if err != nil {
		return nil, err
	}
	return &Deployment{
		Graph:   g,
		PG:      sys.PG,
		Topo:    topo,
		PlacePM: partition.RandomPlacement(sys.PG.Part.P, topo, s.Seed),
		PlaceBA: sys.Placement,
		sys:     sys,
	}, nil
}

// Placement returns the placement an optimization level uses.
func (d *Deployment) Placement(o OptLevel) *partition.Placement {
	if o.BandwidthAwareLayout() {
		return d.PlaceBA
	}
	return d.PlacePM
}

// Options returns the propagation options an optimization level uses.
func (d *Deployment) Options(o OptLevel) propagation.Options {
	return propagation.Options{
		LocalPropagation: o.LocalOpts(),
		LocalCombination: o.LocalOpts(),
	}
}

// Runner builds a fresh metrics-clean runner on the deployment's topology.
// The scale's trace recorder (if any) is shared across runners, so one
// recorder collects a whole experiment sweep.
func (d *Deployment) Runner() *engine.Runner { return d.sys.NewRunner() }

// RunApp executes one application at one optimization level.
func (d *Deployment) RunApp(app apps.App, o OptLevel) (engine.Metrics, error) {
	_, m, err := d.run(app, d.Placement(o), d.Options(o))
	return m, err
}

// run is app.RunPropagation on pl under opt on a fresh runner, replaying the
// plan the deployment's bisection keeps for them; it returns that plan too.
func (d *Deployment) run(app apps.App, pl *partition.Placement, opt propagation.Options) ([]*engine.Job, engine.Metrics, error) {
	r := d.Runner()
	jobs, err := d.sys.Plan(pl, app, opt, func() ([]*engine.Job, error) {
		_, jobs, err := app.Plan(r.Pool(), d.PG, pl, opt)
		return jobs, err
	})
	if err != nil {
		return nil, engine.Metrics{}, err
	}
	m, err := r.RunJobs(jobs)
	return jobs, m, err
}

// RunAppMR executes one application's MapReduce implementation (always on
// the bandwidth-oblivious placement: MapReduce is layout-unaware).
func (d *Deployment) RunAppMR(app apps.App) (engine.Metrics, error) {
	_, m, err := app.RunMapReduce(d.Runner(), d.PG, d.PlacePM)
	return m, err
}
