// Package graph provides the core directed-graph data structures used by
// Surfer: a compact adjacency-list (CSR) representation, an edge-stream
// builder, synthetic graph generators matching the paper's workloads, binary
// serialization, and basic structural statistics.
//
// The on-disk and in-memory format follows the paper (§3): the graph is a set
// of adjacency lists <ID, d, neighbors>, where ID is the vertex ID, d its
// out-degree, and neighbors the IDs of its out-neighbors. Vertices are dense
// integers in [0, NumVertices).
package graph

import (
	"fmt"
	"slices"
	"sort"

	"repro/internal/pool"
)

// VertexID identifies a vertex. Vertex IDs are dense: a graph with n vertices
// uses IDs 0..n-1. The 32-bit width comfortably covers the laptop-scale
// graphs this reproduction targets while halving memory traffic versus int64.
type VertexID uint32

// Graph is an immutable directed graph in compressed sparse row form.
// offsets has NumVertices+1 entries; the out-neighbors of vertex v are
// targets[offsets[v]:offsets[v+1]].
//
// The zero value is an empty graph. Construct graphs with a Builder or one of
// the generators; Graph values are safe for concurrent readers.
type Graph struct {
	offsets []int64
	targets []VertexID
}

// NewFromCSR wraps pre-built CSR arrays in a Graph. offsets must be
// non-decreasing with offsets[0]==0 and offsets[len-1]==len(targets);
// it panics otherwise. The caller must not modify the slices afterwards.
func NewFromCSR(offsets []int64, targets []VertexID) *Graph {
	if len(offsets) == 0 || offsets[0] != 0 {
		// Unreachable from bytes or flags: no reader or tool calls NewFromCSR; only tests do.
		panic("graph: offsets must start at 0")
	}
	for i := 1; i < len(offsets); i++ {
		if offsets[i] < offsets[i-1] {
			// Unreachable from bytes or flags: no reader or tool calls NewFromCSR; only tests do.
			panic("graph: offsets must be non-decreasing")
		}
	}
	if offsets[len(offsets)-1] != int64(len(targets)) {
		// Unreachable from bytes or flags: no reader or tool calls NewFromCSR; only tests do.
		panic("graph: offsets tail must equal len(targets)")
	}
	return &Graph{offsets: offsets, targets: targets}
}

// NumVertices reports the number of vertices.
func (g *Graph) NumVertices() int {
	if len(g.offsets) == 0 {
		return 0
	}
	return len(g.offsets) - 1
}

// NumEdges reports the number of directed edges.
func (g *Graph) NumEdges() int64 {
	return int64(len(g.targets))
}

// OutDegree reports the out-degree of v.
func (g *Graph) OutDegree(v VertexID) int {
	return int(g.offsets[v+1] - g.offsets[v])
}

// Neighbors returns the out-neighbors of v as a shared, read-only slice.
// Callers must not modify the returned slice.
func (g *Graph) Neighbors(v VertexID) []VertexID {
	return g.targets[g.offsets[v]:g.offsets[v+1]]
}

// HasEdge reports whether the directed edge u->v exists. Neighbor lists are
// sorted by Builder.Build, so the lookup is a binary search.
func (g *Graph) HasEdge(u, v VertexID) bool {
	ns := g.Neighbors(u)
	i := sort.Search(len(ns), func(i int) bool { return ns[i] >= v })
	return i < len(ns) && ns[i] == v
}

// Offsets exposes the CSR offset array (NumVertices+1 entries) as a shared,
// read-only slice: the out-neighbors of v are Targets()[Offsets()[v]:
// Offsets()[v+1]]. Hot loops that walk the whole edge array use the flat
// pair directly, skipping the per-vertex Neighbors call. Callers must not
// modify the returned slice.
func (g *Graph) Offsets() []int64 { return g.offsets }

// Targets exposes the flat CSR edge array as a shared, read-only slice. See
// Offsets. Callers must not modify the returned slice.
func (g *Graph) Targets() []VertexID { return g.targets }

// ForEachEdge calls fn for every directed edge (u, v) in vertex order.
// It stops early if fn returns false.
func (g *Graph) ForEachEdge(fn func(u, v VertexID) bool) {
	for u := 0; u < g.NumVertices(); u++ {
		for _, v := range g.Neighbors(VertexID(u)) {
			if !fn(VertexID(u), v) {
				return
			}
		}
	}
}

// SizeBytes estimates the serialized size of the graph in the adjacency-list
// format <ID, d, neighbors> with 4-byte IDs and degrees. It is the quantity
// ||G|| used by the partition-count rule P = 2^ceil(log2(||G||/r)) (§4.2).
func (g *Graph) SizeBytes() int64 {
	// 4 bytes ID + 4 bytes degree per vertex, 4 bytes per neighbor.
	return int64(g.NumVertices())*8 + g.NumEdges()*4
}

// Reverse returns the transpose graph: an edge u->v becomes v->u. Neighbor
// lists of the result are sorted. This is the reference computation for the
// Reverse Link Graph (RLG) application.
func (g *Graph) Reverse() *Graph {
	n := g.NumVertices()
	inDeg := make([]int64, n+1)
	for _, v := range g.targets {
		inDeg[v+1]++
	}
	offsets := make([]int64, n+1)
	for i := 1; i <= n; i++ {
		offsets[i] = offsets[i-1] + inDeg[i]
	}
	targets := make([]VertexID, len(g.targets))
	cursor := make([]int64, n)
	copy(cursor, offsets[:n])
	for u := 0; u < n; u++ {
		for _, v := range g.Neighbors(VertexID(u)) {
			targets[cursor[v]] = VertexID(u)
			cursor[v]++
		}
	}
	// Each neighbor list is appended in increasing source order, so the
	// lists are already sorted.
	return &Graph{offsets: offsets, targets: targets}
}

// Undirected returns the symmetric closure of g with self-loops and duplicate
// edges removed: for every edge u->v (u != v), both u->v and v->u appear
// exactly once, and every neighbor list is sorted. Partitioning operates on
// this view, since cut quality is about connectivity regardless of direction.
//
// It runs in O(V+E) and sorts nothing: transposing g sorts the in-neighbor
// lists, transposing that back sorts the out-neighbor lists whatever order g
// held them in, and each vertex's result is the merge of its two lists. When
// g's rows are already non-decreasing (every Builder-made graph), g is its
// own re-sorted transpose and the second transpose is skipped.
func (g *Graph) Undirected() *Graph { return g.UndirectedOn(nil) }

// undirectedGrain is the fewest merged entries (of the bound) worth a range
// of their own in UndirectedOn.
const undirectedGrain = 1 << 15

// UndirectedOn is Undirected with the merges run on p over contiguous vertex
// ranges (nil: serially). Vertex v's merged row has at most its out-degree
// plus its in-degree entries, so a range starting at v writes from that
// bound's prefix on, and the ranges' rows are then moved down to close the
// gaps: the result is the serial one byte for byte, for every worker count.
func (g *Graph) UndirectedOn(p *pool.Pool) *Graph {
	// Each edge is merged twice, once per direction.
	return g.undirected(p, min(p.Ranges(), 2*len(g.targets)/undirectedGrain))
}

// undirected is UndirectedOn over at most k ranges.
func (g *Graph) undirected(p *pool.Pool, k int) *Graph {
	n := g.NumVertices()
	if n == 0 {
		return &Graph{offsets: make([]int64, 1)}
	}
	in, out := g.Reverse(), g
	for v := 0; v < n; v++ {
		if !slices.IsSorted(g.Neighbors(VertexID(v))) {
			out = in.Reverse()
			break
		}
	}
	offsets := make([]int64, n+1)
	targets := make([]VertexID, out.offsets[n]+in.offsets[n])
	if k > 1 {
		offsets[n] = mergeRanges(p, k, out, in, offsets, targets)
	} else {
		offsets[n] = mergeRows(out, in, offsets, targets, 0, n)
	}
	return &Graph{offsets: offsets, targets: targets[:offsets[n]]}
}

// mergeRows writes the merged rows of vertices [lo, hi) from their bound on,
// sets their offsets, and returns where the last row ended.
func mergeRows(out, in *Graph, offsets []int64, targets []VertexID, lo, hi int) int64 {
	w := out.offsets[lo] + in.offsets[lo]
	for v := lo; v < hi; v++ {
		start := w
		offsets[v] = start
		a, b := out.Neighbors(VertexID(v)), in.Neighbors(VertexID(v))
		for len(a) > 0 || len(b) > 0 {
			var t VertexID
			if len(b) == 0 || len(a) > 0 && a[0] <= b[0] {
				t, a = a[0], a[1:]
			} else {
				t, b = b[0], b[1:]
			}
			// Merged order puts duplicates next to each other.
			if t != VertexID(v) && (w == start || t != targets[w-1]) {
				targets[w] = t
				w++
			}
		}
	}
	return w
}

// mergeRanges is mergeRows over k ranges of about equal bound on p, joined.
func mergeRanges(p *pool.Pool, k int, out, in *Graph, offsets []int64, targets []VertexID) int64 {
	n := len(offsets) - 1
	bound := func(v int) int64 { return out.offsets[v] + in.offsets[v] }
	// cuts[r] is range r's first vertex, ends[r] where its rows end.
	buf := make([]int64, 2*k+1)
	cuts, ends := buf[:k+1], buf[k+1:]
	cuts[k] = int64(n)
	for r := 1; r < k; r++ {
		target := bound(n) * int64(r) / int64(k)
		cuts[r] = int64(sort.Search(n, func(v int) bool { return bound(v) >= target }))
	}
	p.ForEach(k, func(r int) {
		ends[r] = mergeRows(out, in, offsets, targets, int(cuts[r]), int(cuts[r+1]))
	})
	w := ends[0]
	for r := 1; r < k; r++ {
		base := bound(int(cuts[r]))
		copy(targets[w:], targets[base:ends[r]])
		for v := cuts[r]; v < cuts[r+1]; v++ {
			offsets[v] -= base - w
		}
		w += ends[r] - base
	}
	return w
}

// Equal reports whether two graphs have identical vertex counts and
// adjacency lists.
func (g *Graph) Equal(h *Graph) bool {
	if g.NumVertices() != h.NumVertices() || g.NumEdges() != h.NumEdges() {
		return false
	}
	for i := range g.offsets {
		if g.offsets[i] != h.offsets[i] {
			return false
		}
	}
	for i := range g.targets {
		if g.targets[i] != h.targets[i] {
			return false
		}
	}
	return true
}

// String summarizes the graph for debugging.
func (g *Graph) String() string {
	return fmt.Sprintf("graph{V=%d E=%d}", g.NumVertices(), g.NumEdges())
}

// InDegrees computes the in-degree of every vertex in one pass.
func (g *Graph) InDegrees() []int {
	in := make([]int, g.NumVertices())
	for _, v := range g.targets {
		in[v]++
	}
	return in
}

// MaxOutDegree returns the largest out-degree in the graph, or 0 if empty.
func (g *Graph) MaxOutDegree() int {
	max := 0
	for v := 0; v < g.NumVertices(); v++ {
		if d := g.OutDegree(VertexID(v)); d > max {
			max = d
		}
	}
	return max
}
