package graph

import "slices"

// Builder accumulates directed edges and produces an immutable Graph.
// It tolerates unsorted and duplicate input; Build sorts each adjacency list
// and (optionally) removes duplicates.
type Builder struct {
	n       int
	srcs    []VertexID
	dsts    []VertexID
	dedup   bool
	noLoops bool
}

// NewBuilder creates a builder for a graph with n vertices. Duplicate edges
// are removed by default; self-loops are kept.
func NewBuilder(n int) *Builder {
	return &Builder{n: n, dedup: true}
}

// KeepDuplicates configures Build to keep parallel edges.
func (b *Builder) KeepDuplicates() *Builder { b.dedup = false; return b }

// DropSelfLoops configures Build to drop edges u->u.
func (b *Builder) DropSelfLoops() *Builder { b.noLoops = true; return b }

// AddEdge records the directed edge u->v. It panics if either endpoint is
// out of range.
func (b *Builder) AddEdge(u, v VertexID) {
	if int(u) >= b.n || int(v) >= b.n {
		// Unreachable from bytes or flags: ReadEdgeList sizes the builder from its largest ID, LoadDir range-checks first, generators draw below n.
		panic("graph: edge endpoint out of range")
	}
	b.srcs = append(b.srcs, u)
	b.dsts = append(b.dsts, v)
}

// Build constructs the Graph. The builder can be reused afterwards, but the
// accumulated edges are retained; call Reset to start fresh.
func (b *Builder) Build() *Graph {
	// Counting sort by source to build CSR without a global edge sort.
	counts := make([]int64, b.n+1)
	for _, u := range b.srcs {
		counts[u+1]++
	}
	offsets := make([]int64, b.n+1)
	for i := 1; i <= b.n; i++ {
		offsets[i] = offsets[i-1] + counts[i]
	}
	targets := make([]VertexID, len(b.srcs))
	cursor := make([]int64, b.n)
	copy(cursor, offsets[:b.n])
	for i, u := range b.srcs {
		targets[cursor[u]] = b.dsts[i]
		cursor[u]++
	}
	// Sort each adjacency list, then compact in place if deduping.
	outOff := make([]int64, b.n+1)
	w := int64(0)
	for v := 0; v < b.n; v++ {
		lo, hi := offsets[v], offsets[v+1]
		list := targets[lo:hi]
		slices.Sort(list)
		outOff[v] = w
		var prev VertexID
		first := true
		for _, t := range list {
			if b.noLoops && t == VertexID(v) {
				continue
			}
			if b.dedup && !first && t == prev {
				continue
			}
			targets[w] = t
			w++
			prev, first = t, false
		}
	}
	outOff[b.n] = w
	return &Graph{offsets: outOff, targets: targets[:w]}
}

// Reset discards accumulated edges, keeping capacity.
func (b *Builder) Reset() {
	b.srcs = b.srcs[:0]
	b.dsts = b.dsts[:0]
}

// FromEdges is a convenience constructor building a deduplicated graph from
// an explicit edge list.
func FromEdges(n int, edges [][2]VertexID) *Graph {
	b := NewBuilder(n)
	for _, e := range edges {
		b.AddEdge(e[0], e[1])
	}
	return b.Build()
}
