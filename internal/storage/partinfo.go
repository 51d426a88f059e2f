// Package storage materializes a partitioned data graph the way Surfer
// stores it on slave machines (§3, §5.1): each partition keeps its vertices'
// adjacency lists, and partitions are placed on machines by a
// partition.Placement and replicated three ways like GFS.
//
// Of §5.1's locality structures only the in-boundary set survives, as one
// graph-wide bitset: local propagation needs to know whether a cross-partition
// edge enters a vertex, and nothing else. The paper's (v, pid) table and
// per-remote statistics serve local combination, which here groups a
// partition's emissions by sorting them and so never looks a destination up.
package storage

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/partition"
)

// PartInfo is the per-partition metadata the engine charges and
// propagation reads while processing the partition.
type PartInfo struct {
	ID partition.PartID
	// Vertices lists the partition's vertices in increasing ID order.
	Vertices []graph.VertexID
	// InnerEdges counts out-edges with both endpoints in this partition;
	// CrossOut counts out-edges to other partitions.
	InnerEdges int64
	CrossOut   int64
	// Bytes is the serialized size of the partition's adjacency lists,
	// the unit the engine charges for disk scans.
	Bytes int64

	// inBoundary is a graph-wide bitset shared by every PartInfo of the same
	// Build: bit v is set iff a cross-partition edge enters v. Sharing is
	// sound because each vertex belongs to exactly one partition.
	inBoundary bitset
}

// bitset is a fixed-size bit vector indexed by vertex ID.
type bitset []uint64

func newBitset(n int) bitset               { return make(bitset, (n+63)/64) }
func (b bitset) set(v graph.VertexID)      { b[v>>6] |= 1 << (v & 63) }
func (b bitset) has(v graph.VertexID) bool { return b[v>>6]&(1<<(v&63)) != 0 }

// OutEdges reports the number of out-edges of the partition's vertices: one
// Transfer call, and in the common program one emission, each.
func (pi *PartInfo) OutEdges() int64 { return pi.InnerEdges + pi.CrossOut }

// HasCrossInEdge reports whether v receives any cross-partition edge; if
// not, v's combine input is entirely local and local propagation can fuse
// it in memory.
func (pi *PartInfo) HasCrossInEdge(v graph.VertexID) bool {
	return pi.inBoundary.has(v)
}

// PartitionedGraph bundles a data graph with its partitioning and the
// per-partition metadata.
type PartitionedGraph struct {
	G     *graph.Graph
	Part  *partition.Partitioning
	Parts []*PartInfo
}

// Build computes the per-partition metadata for a partitioned graph in one
// pass over the edges, touching only flat arrays and one bitset.
func Build(g *graph.Graph, pt *partition.Partitioning) (*PartitionedGraph, error) {
	if g.NumVertices() != len(pt.Assign) {
		return nil, fmt.Errorf("storage: partitioning covers %d vertices, graph has %d", len(pt.Assign), g.NumVertices())
	}
	if err := pt.Validate(); err != nil {
		return nil, err
	}
	n := g.NumVertices()
	pg := &PartitionedGraph{G: g, Part: pt, Parts: make([]*PartInfo, pt.P)}
	inBoundary := newBitset(n)
	for p := range pg.Parts {
		pg.Parts[p] = &PartInfo{ID: partition.PartID(p), inBoundary: inBoundary}
	}
	for v, p := range pt.Assign {
		pi := pg.Parts[p]
		pi.Vertices = append(pi.Vertices, graph.VertexID(v))
	}
	offsets, targets := g.Offsets(), g.Targets()
	for u := 0; u < n; u++ {
		pu := pt.Assign[u]
		src := pg.Parts[pu]
		for _, v := range targets[offsets[u]:offsets[u+1]] {
			if pt.Assign[v] == pu {
				src.InnerEdges++
				continue
			}
			src.CrossOut++
			inBoundary.set(v)
		}
	}
	for _, pi := range pg.Parts {
		pi.Bytes = int64(len(pi.Vertices))*8 + pi.OutEdges()*4
	}
	return pg, nil
}

// Bytes sums the serialized sizes of all partitions.
func (pg *PartitionedGraph) Bytes() int64 {
	var b int64
	for _, pi := range pg.Parts {
		b += pi.Bytes
	}
	return b
}

// PartBytes returns the serialized size of each partition indexed by
// PartID — the per-partition migration volume the engine charges when a
// drain evicts resident state (engine.Config.PartBytes).
func (pg *PartitionedGraph) PartBytes() []int64 {
	out := make([]int64, len(pg.Parts))
	for p, pi := range pg.Parts {
		out[p] = pi.Bytes
	}
	return out
}

// Validate cross-checks the metadata invariants: the partitions cover every
// vertex, and inner plus cross edges make up every edge.
func (pg *PartitionedGraph) Validate() error {
	total := 0
	var inner, cross int64
	for _, pi := range pg.Parts {
		total += len(pi.Vertices)
		inner += pi.InnerEdges
		cross += pi.CrossOut
	}
	if total != pg.G.NumVertices() {
		return fmt.Errorf("storage: partitions cover %d of %d vertices", total, pg.G.NumVertices())
	}
	if inner+cross != pg.G.NumEdges() {
		return fmt.Errorf("storage: inner %d + cross %d != |E| %d", inner, cross, pg.G.NumEdges())
	}
	return nil
}
