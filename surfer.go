// Package surfer is a Go reproduction of Surfer, the large-graph processing
// engine for the cloud described in "On the Efficiency and Programmability
// of Large Graph Processing in the Cloud" (Chen, Weng, He, Yang, Choi, Li;
// demo version in SIGMOD 2010 as "Large graph processing in the cloud").
//
// Surfer stores a graph as partitions produced by a bandwidth-aware
// multi-level partitioning algorithm, places them on the machines of an
// uneven cloud network so cross-partition traffic follows high-bandwidth
// links, and executes two programming primitives on top:
//
//   - propagation — the paper's contribution: per-edge transfer and
//     per-vertex combine functions with automatic locality optimizations
//     (local propagation, local combination, cascaded multi-iteration
//     execution);
//   - MapReduce — the partition-aware map / hash-shuffled reduce baseline.
//
// The cluster is simulated: machines, pods, NICs, disks and failures follow
// the paper's topologies (T1, T2(#pod,#level), T3) with a virtual clock, so
// every experiment runs deterministically on one host while byte counters
// remain exact. See DESIGN.md for the system inventory and EXPERIMENTS.md
// for the paper-vs-measured results.
//
// # Quick start
//
//	g := surfer.Social(surfer.DefaultSocial(1<<16, 42))
//	topo := surfer.NewT2(surfer.T2Config{Machines: 32, Pods: 2, Levels: 1})
//	sys, err := surfer.Build(surfer.Config{
//		Graph: g, Topology: topo, Levels: 6, Seed: 42,
//	})
//	// define a propagation program and run it:
//	st, metrics, err := surfer.RunPropagation(sys, sys.NewRunner(), prog, 3,
//		surfer.PropagationOptions{LocalPropagation: true, LocalCombination: true})
package surfer

import (
	"io"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/fault"
	"repro/internal/graph"
	"repro/internal/mapreduce"
	"repro/internal/partition"
	"repro/internal/propagation"
	"repro/internal/storage"
	"repro/internal/trace"
)

// ---------------------------------------------------------------- graphs

// Graph is an immutable directed graph in adjacency-list (CSR) form.
type Graph = graph.Graph

// VertexID identifies a vertex; IDs are dense in [0, NumVertices).
type VertexID = graph.VertexID

// Builder accumulates edges and produces a Graph.
type Builder = graph.Builder

// NewBuilder creates a Builder for a graph with n vertices.
func NewBuilder(n int) *Builder { return graph.NewBuilder(n) }

// FromEdges builds a deduplicated graph from an edge list.
func FromEdges(n int, edges [][2]VertexID) *Graph { return graph.FromEdges(n, edges) }

// LoadGraph reads a graph from a file in the Surfer binary format.
func LoadGraph(path string) (*Graph, error) { return graph.Load(path) }

// LoadEdgeList reads a graph from a SNAP-style "src dst" text file.
func LoadEdgeList(path string) (*Graph, error) { return graph.LoadEdgeList(path) }

// Generator configurations and constructors.
type (
	// RMATConfig parameterizes the power-law R-MAT generator.
	RMATConfig = graph.RMATConfig
	// SmallWorldConfig parameterizes the paper's stitched small-world
	// generator (§F.1).
	SmallWorldConfig = graph.SmallWorldConfig
	// SocialConfig parameterizes the hybrid community+hub generator used
	// as the MSN-snapshot stand-in.
	SocialConfig = graph.SocialConfig
)

// DefaultRMAT returns classic skewed R-MAT parameters.
func DefaultRMAT(scale, edgeFactor int, seed int64) RMATConfig {
	return graph.DefaultRMAT(scale, edgeFactor, seed)
}

// RMAT generates a power-law directed graph.
func RMAT(cfg RMATConfig) *Graph { return graph.RMAT(cfg) }

// DefaultSmallWorld returns the paper-flavored stitched small-world config.
func DefaultSmallWorld(n int, seed int64) SmallWorldConfig {
	return graph.DefaultSmallWorld(n, seed)
}

// SmallWorld generates the stitched small-world graph of §F.1.
func SmallWorld(cfg SmallWorldConfig) *Graph { return graph.SmallWorld(cfg) }

// DefaultSocial returns the hybrid social-graph configuration.
func DefaultSocial(n int, seed int64) SocialConfig { return graph.DefaultSocial(n, seed) }

// Social generates the hybrid social graph (communities + hubs).
func Social(cfg SocialConfig) *Graph { return graph.Social(cfg) }

// --------------------------------------------------------------- cluster

// Topology models the simulated cloud network (§2, §6.1).
type Topology = cluster.Topology

// MachineID identifies a machine in a topology.
type MachineID = cluster.MachineID

// T2Config parameterizes the tree topology T2(#pod, #level).
type T2Config = cluster.T2Config

// NewT1 builds the flat, even-bandwidth cluster T1.
func NewT1(machines int) *Topology { return cluster.NewT1(machines) }

// NewT2 builds a switch-tree topology T2.
func NewT2(cfg T2Config) *Topology { return cluster.NewT2(cfg) }

// NewT3 builds the heterogeneous cluster T3 (half the NICs at half rate).
func NewT3(machines int, seed int64) *Topology { return cluster.NewT3(machines, seed) }

// ---------------------------------------------------------------- system

// Config describes a Surfer deployment (graph, topology, partitioning).
type Config = core.Config

// System is an assembled deployment: partitioned, placed and replicated.
type System = core.System

// Build partitions and places the configured graph.
func Build(cfg Config) (*System, error) { return core.Build(cfg) }

// Runner executes jobs on the simulated cluster in virtual time. The
// compute bodies of concurrently in-flight tasks (Transfer fan-out, Combine
// folds, Map/Reduce) execute on a real worker pool sized by Config.Workers
// (0 = GOMAXPROCS, 1 = serial); results and Metrics are bit-identical for
// every worker count — see DESIGN.md, "Parallel execution & the
// determinism contract".
type Runner = engine.Runner

// Metrics aggregates response time, total machine time, network I/O and
// disk I/O of a run.
type Metrics = engine.Metrics

// ----------------------------------------------------------- fault model

// FaultSchedule is a run's fault plan: machine kills, degraded links,
// transfer-drop windows, machine compute slowdowns, joins and drains. Set
// one on Config.Faults; its JSON form is the fault file the CLIs read. Nil
// disables injection at zero cost; values are bit-identical with and
// without workers because faults are pure functions of (link, time)
// evaluated from the serial event loop.
type FaultSchedule = fault.Schedule

// Kill schedules a machine death for fault-tolerance experiments (Figure
// 10), in FaultSchedule.Kills.
type Kill = fault.Kill

// LinkFault degrades (in FaultSchedule.Links, by Factor > 1) or blackholes
// (in FaultSchedule.Drops) one directed link over a [From, Until)
// virtual-time window.
type LinkFault = fault.LinkFault

// MachineSlowdown stretches one machine's compute durations over a window,
// modeling a straggler.
type MachineSlowdown = fault.Slowdown

// RetryPolicy governs dropped-transfer detection (timeout) and the
// exponential backoff between redelivery attempts. The zero value selects
// the defaults: 1s timeout, 0.25s initial backoff doubling to 8s,
// unlimited attempts.
type RetryPolicy = fault.RetryPolicy

// LoadFaultFile reads a fault file: a FaultSchedule's JSON form.
func LoadFaultFile(path string) (*FaultSchedule, error) { return fault.Load(path) }

// CheckpointConfig configures iteration checkpointing for RunCheckpointed.
type CheckpointConfig = propagation.CheckpointConfig

// --------------------------------------------------------------- tracing

// TraceRecorder collects the structured event stream of traced runs. A nil
// recorder is valid and disables tracing at zero cost; set one on
// Config.Trace (or bench.Scale.Trace) to record.
// The stream is identical for every Workers value — see docs/METRICS.md.
type TraceRecorder = trace.Recorder

// TraceEvent is one structured simulation event: a task, transfer, stage
// barrier, failure or retry, stamped with virtual times.
type TraceEvent = trace.Event

// TraceEventKind discriminates TraceEvent records.
type TraceEventKind = trace.EventKind

// TraceBreakdown is the hierarchical job → stage → machine metrics
// breakdown computed from an event stream.
type TraceBreakdown = trace.Breakdown

// NewTraceRecorder creates an enabled trace recorder.
func NewTraceRecorder() *TraceRecorder { return trace.NewRecorder() }

// WriteChromeTrace exports events in Chrome trace_event JSON format
// (chrome://tracing, Perfetto): machines as processes, task/egress/ingress
// lanes as threads, the virtual clock as the time axis.
func WriteChromeTrace(w io.Writer, events []TraceEvent) error { return trace.WriteChrome(w, events) }

// SummarizeTrace folds an event stream into the per-job, per-stage,
// per-machine breakdown (compute seconds, NIC busy time and bytes, stalls
// and incast stalls).
func SummarizeTrace(events []TraceEvent) *TraceBreakdown { return trace.Summarize(events) }

// ----------------------------------------------------------- propagation

// Program is a propagation application: transfer and combine user-defined
// functions (§3.2).
type Program[V any] = propagation.Program[V]

// Emit delivers a value to a destination vertex during transfer.
type Emit[V any] = propagation.Emit[V]

// State carries per-vertex values between propagation iterations.
type State[V any] = propagation.State[V]

// PropagationOptions selects the automatic optimizations of §5.
type PropagationOptions = propagation.Options

// NonAssociative is a mixin for programs whose combine cannot be applied
// partially (disables local combination).
type NonAssociative[V any] = propagation.NonAssociative[V]

// CascadeInfo reports the V_k structure used by cascaded propagation.
type CascadeInfo = propagation.CascadeInfo

// RunPropagation executes a propagation program for iters iterations on a
// fresh state.
func RunPropagation[V any](sys *System, r *Runner, prog Program[V], iters int, opt PropagationOptions) (*State[V], Metrics, error) {
	return propagation.RunIterations(r, sys.PG, sys.Placement, prog, propagation.NewState(sys.PG, prog), opt, iters)
}

// RunCascaded is RunPropagation with the cascaded multi-iteration
// optimization (§5.2).
func RunCascaded[V any](sys *System, r *Runner, prog Program[V], iters int, opt PropagationOptions) (*State[V], Metrics, error) {
	return propagation.RunCascaded(r, sys.PG, sys.Placement, prog, propagation.NewState(sys.PG, prog), opt, iters, nil)
}

// RunCheckpointed is RunPropagation with iteration checkpointing: the state
// persists to storage replicas every ckpt.Interval iterations (charged to
// the virtual clock and NICs as ordinary jobs), and a machine death replays
// at most Interval iterations instead of the whole run. Replicas default to
// the system's own layout. Recovered values are bit-identical to a
// failure-free run.
func RunCheckpointed[V any](sys *System, r *Runner, prog Program[V], iters int, opt PropagationOptions, ckpt CheckpointConfig) (*State[V], Metrics, error) {
	if ckpt.Replicas == nil {
		ckpt.Replicas = sys.Replicas
	}
	return propagation.RunCheckpointed(r, sys.PG, sys.Placement, prog, propagation.NewState(sys.PG, prog), opt, iters, ckpt)
}

// RunPropagationTree is RunPropagation with tree aggregation (an extension
// of local combination): cross-pod values merge inside the sending pod
// before crossing the oversubscribed top-level switch. Requires an
// associative program; pays off when spread placement or heavy workloads
// push a lot of duplicate-destination traffic across pods.
func RunPropagationTree[V any](sys *System, r *Runner, prog Program[V], iters int, opt PropagationOptions) (*State[V], Metrics, error) {
	return propagation.RunIterationsTree(r, sys.PG, sys.Placement, prog, propagation.NewState(sys.PG, prog), opt, iters)
}

// AnalyzeCascade computes the cascade depths (V_k membership) of a built
// system's partitions.
func AnalyzeCascade(sys *System) *CascadeInfo { return propagation.AnalyzeCascade(sys.PG) }

// ------------------------------------------------------------- mapreduce

// MRProgram is a MapReduce application on the partitioned graph (§3.1).
type MRProgram[K MRKey, V any, R any] = mapreduce.Program[K, V, R]

// MRKey constrains MapReduce keys to integer-like types.
type MRKey = mapreduce.Key

// MROptions configures a MapReduce execution.
type MROptions = mapreduce.Options

// PartInfo is the per-partition locality metadata visible to Map functions.
type PartInfo = storage.PartInfo

// RunMapReduce executes a MapReduce program once.
func RunMapReduce[K MRKey, V any, R any](sys *System, r *Runner, prog MRProgram[K, V, R], opt MROptions) (map[K]R, Metrics, error) {
	return mapreduce.Run(r, sys.PG, sys.Placement, prog, opt)
}

// ----------------------------------------------------------- diagnostics

// PartitioningTime estimates the elapsed seconds of the distributed run that
// bisects g into sk on topo (Table 1), bandwidth-aware and, with machine
// sets split by a shuffle seeded with seed, bandwidth-oblivious.
func PartitioningTime(g *Graph, sk *partition.Sketch, topo *Topology, seed int64) (aware, baseline float64) {
	return partition.PartitioningTime(g, sk, topo, seed)
}
