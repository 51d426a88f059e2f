// Package propagation implements Surfer's propagation primitive (§3.2, §5):
// iterative information transfer along edges, expressed by two user-defined
// functions — transfer (how a value moves along an edge) and combine (how a
// vertex folds the values it received). The executor runs each iteration as
// a Transfer stage and a Combine stage on the simulated cluster, applying
// the paper's automatic optimizations:
//
//   - local propagation (§5.1): values destined to inner vertices of the
//     same partition are consumed in memory, never materialized;
//   - local combination (§5.1): when combine is associative, values leaving
//     a partition for the same remote vertex are merged before transfer;
//   - cascaded propagation (§5.2): in multi-iteration runs, vertices whose
//     k-hop in-neighborhood stays inside the partition skip intermediate
//     state I/O for k iterations.
//
// The optimizations never change results — only network traffic, disk
// traffic and time. The executor computes exact semantics and exact byte
// counts together.
package propagation

import (
	"repro/internal/graph"
)

// Emit delivers a value to a destination vertex during Transfer. dst may be
// a virtual vertex (ID >= NumVertices) when the run declares virtual space.
type Emit[V any] func(dst graph.VertexID, val V)

// Program is the user-defined logic of a propagation application.
//
// Transfer is called once for every out-edge (src, dst) of the graph with
// src's current value; it may emit zero or more values to dst (the common
// case is exactly one, matching the paper's transfer: (v, v') -> (v',
// value)), and may also emit to virtual vertices to express vertex-oriented
// tasks (§3.2 "virtual vertex").
//
// Combine folds the bag of values a vertex received into the vertex's next
// value; prev is the vertex's value from the previous iteration. Combine is
// called for every real vertex each iteration (with an empty bag when
// nothing arrived) and for every virtual vertex that received values.
//
// The values slices passed to Combine and Merge are windows into pooled
// buffers the executor reuses across iterations — Merge's is the window of
// its destination's group in the source partition's group buffer:
// implementations may read them freely during the call (and keep the element
// values, which are copies) but must not retain the slice itself.
//
// The executor plans a partition's emissions from the order they were made
// in: a Transfer whose sequence of emitted destinations depends on the graph
// only, not on the values, repeats it every iteration, and that is what keeps
// the iterations after the first cheap. Any sequence is correct.
type Program[V any] interface {
	// Init returns vertex v's value before the first iteration.
	Init(v graph.VertexID) V
	// Transfer moves information along the edge (src, dst).
	Transfer(src graph.VertexID, srcVal V, dst graph.VertexID, emit Emit[V])
	// Combine folds received values into the vertex's next value.
	Combine(v graph.VertexID, prev V, values []V) V
	// Bytes reports the serialized size of a value, for I/O accounting.
	Bytes(v V) int64
	// Associative reports whether Merge may pre-combine values headed to
	// the same destination (enables local combination).
	Associative() bool
	// Merge pre-combines values headed to the same destination vertex
	// within one source partition. Only called when Associative() is
	// true; non-associative programs may panic.
	Merge(dst graph.VertexID, values []V) V
}

// VertexTransferrer is an optional extension for vertex-oriented tasks
// (§3.2): TransferVertex is called exactly once per vertex, before its
// edges, and typically emits along "virtual edges" to virtual vertices —
// how Surfer emulates MapReduce-style vertex aggregation (e.g. VDD).
type VertexTransferrer[V any] interface {
	TransferVertex(v graph.VertexID, val V, emit Emit[V])
}

// Scatterer is an optional fast path for a Transfer that emits one value, a
// function of the source alone, along every out-edge: Scatter returns it, or
// false when Transfer emits nothing. The executor then calls it once per
// vertex with out-edges instead of Transfer once per edge, making the same
// emissions in the same order (so every bag shares the one value).
type Scatterer[V any] interface {
	Scatter(src graph.VertexID, val V) (V, bool)
}

// NonAssociative is a mixin providing the two methods of Program that
// non-associative programs do not support.
type NonAssociative[V any] struct{}

// Associative reports false.
func (NonAssociative[V]) Associative() bool { return false }

// Merge panics: local combination must not be applied.
func (NonAssociative[V]) Merge(graph.VertexID, []V) V {
	// Unreachable: both callers group only when Associative() holds (newExecution's grouping, planIteration's tree check).
	panic("propagation: Merge called on a non-associative program")
}

// The CPU cost constants of the execution model make the simulated system
// I/O-bound, like the paper's deployment: the per-edge CPU cost of an
// optimized C++ kernel is tens of nanoseconds, far below the disk and network
// cost of moving the same edge's data, so byte volumes — not CPU — decide the
// experiment outcomes.
const (
	// computePerEdge is seconds per transfer call (one per out-edge).
	computePerEdge = 20e-9
	// computePerValue is seconds per value folded in a combine call.
	computePerValue = 10e-9
)

// Options selects the optimization level and execution parameters of a run.
// The four optimization levels of §6.3 map to:
//
//	O1: LocalPropagation=false, LocalCombination=false, ParMetis placement
//	O2: LocalPropagation=false, LocalCombination=false, sketch placement
//	O3: both true, ParMetis placement
//	O4: both true, sketch placement
//
// (Placement is chosen by the caller when building the engine runner.)
type Options struct {
	LocalPropagation bool
	LocalCombination bool
	// VirtualVertices is the size of the virtual vertex ID space
	// [NumVertices, NumVertices+VirtualVertices) available to Transfer.
	VirtualVertices int
}
