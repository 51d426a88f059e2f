// Package storage materializes a partitioned data graph the way Surfer
// stores it on slave machines (§3, §5.1): each partition keeps its vertices'
// adjacency lists plus two locality structures generated at partitioning
// time — the set of the partition's boundary vertices and the (v, pid)
// association from the destination vertex of each outgoing cross-partition
// edge to the remote partition that owns it. The paper stores these as hash
// tables; we store the boundary sets as graph-wide bitsets and the
// cross-destination set as a sorted flat slice, so Build makes no map
// insertions on the per-edge path and lookups stay cache-friendly at
// millions of vertices. Partitions are placed on machines by a
// partition.Placement and replicated three ways like GFS.
package storage

import (
	"fmt"
	"slices"

	"repro/internal/graph"
	"repro/internal/partition"
)

// CrossStats summarizes the outgoing cross-partition edges from one
// partition to one remote partition.
type CrossStats struct {
	// Edges is the number of cross-partition edges to that remote.
	Edges int64
	// DistinctDst is the number of distinct destination vertices among
	// them. Local combination (§5.1) shrinks the transfer from Edges
	// values to DistinctDst values when the combiner is associative.
	DistinctDst int64
}

// PartInfo is the per-partition locality metadata Surfer keeps in memory
// while processing the partition.
type PartInfo struct {
	ID partition.PartID
	// Vertices lists the partition's vertices in increasing ID order.
	Vertices []graph.VertexID
	// CrossDst lists the distinct destination vertices of this partition's
	// outgoing cross-partition edges, in increasing ID order — the (v, pid)
	// structure of §5.1, with the pid half implied by the assignment (see
	// CrossDstPart).
	CrossDst []graph.VertexID
	// OutPerPart aggregates outgoing cross-edge statistics per remote
	// partition; InPerPart counts incoming cross edges per remote.
	OutPerPart map[partition.PartID]*CrossStats
	InPerPart  map[partition.PartID]int64
	// InnerEdges counts edges with both endpoints in this partition;
	// CrossOut / CrossIn count cross-partition edges leaving / entering.
	InnerEdges int64
	CrossOut   int64
	CrossIn    int64
	// BoundaryCount counts this partition's boundary vertices: members
	// touching at least one cross-partition edge (either direction).
	BoundaryCount int64
	// InnerVertices counts vertices with no cross-partition edge at all.
	InnerVertices int64
	// Bytes is the serialized size of the partition's adjacency lists,
	// the unit the engine charges for disk scans.
	Bytes int64

	// boundary and inBoundary are graph-wide bitsets shared by every
	// PartInfo of the same Build: bit v is set iff v is a boundary vertex
	// (resp. has an incoming cross-partition edge) of its owning partition.
	// Sharing is sound because each vertex belongs to exactly one partition.
	boundary   bitset
	inBoundary bitset
	// assign is the shared vertex→partition assignment, for CrossDstPart.
	assign []partition.PartID
}

// bitset is a fixed-size bit vector indexed by vertex ID.
type bitset []uint64

func newBitset(n int) bitset               { return make(bitset, (n+63)/64) }
func (b bitset) set(v graph.VertexID)      { b[v>>6] |= 1 << (v & 63) }
func (b bitset) has(v graph.VertexID) bool { return b[v>>6]&(1<<(v&63)) != 0 }

// NumVertices reports the number of vertices in the partition.
func (pi *PartInfo) NumVertices() int { return len(pi.Vertices) }

// IsBoundary reports whether v (a member of this partition) is a boundary
// vertex.
func (pi *PartInfo) IsBoundary(v graph.VertexID) bool {
	return pi.boundary.has(v)
}

// OutEdges reports the number of out-edges of the partition's vertices: one
// Transfer call, and in the common program one emission, each.
func (pi *PartInfo) OutEdges() int64 { return pi.InnerEdges + pi.CrossOut }

// HasCrossInEdge reports whether v receives any cross-partition edge; if
// not, v's combine input is entirely local and local propagation can fuse
// it in memory.
func (pi *PartInfo) HasCrossInEdge(v graph.VertexID) bool {
	return pi.inBoundary.has(v)
}

// CrossDstPart reports the remote partition owning destination vertex v,
// and whether v is the destination of any outgoing cross-partition edge of
// this partition — the lookup the paper serves from the (v, pid) hash table.
func (pi *PartInfo) CrossDstPart(v graph.VertexID) (partition.PartID, bool) {
	if _, ok := slices.BinarySearch(pi.CrossDst, v); !ok {
		return 0, false
	}
	return pi.assign[v], true
}

// PartitionedGraph bundles a data graph with its partitioning and the
// per-partition metadata.
type PartitionedGraph struct {
	G     *graph.Graph
	Part  *partition.Partitioning
	Parts []*PartInfo
}

// Build computes all per-partition metadata for a partitioned graph in two
// passes over the edges. The per-edge path touches only flat arrays and
// bitsets; maps appear only in the final per-remote aggregation (at most
// P² entries).
func Build(g *graph.Graph, pt *partition.Partitioning) (*PartitionedGraph, error) {
	if g.NumVertices() != len(pt.Assign) {
		return nil, fmt.Errorf("storage: partitioning covers %d vertices, graph has %d", len(pt.Assign), g.NumVertices())
	}
	if err := pt.Validate(); err != nil {
		return nil, err
	}
	n := g.NumVertices()
	P := pt.P
	pg := &PartitionedGraph{G: g, Part: pt, Parts: make([]*PartInfo, P)}
	boundary := newBitset(n)
	inBoundary := newBitset(n)
	for p := 0; p < P; p++ {
		pg.Parts[p] = &PartInfo{
			ID:         partition.PartID(p),
			boundary:   boundary,
			inBoundary: inBoundary,
			assign:     pt.Assign,
		}
	}
	for v, p := range pt.Assign {
		pi := pg.Parts[p]
		pi.Vertices = append(pi.Vertices, graph.VertexID(v))
	}
	// Per-(src,remote) edge counts in a flat P×P matrix; cross-edge
	// destinations collected per source partition and deduplicated by
	// sorting afterwards.
	outEdges := make([]int64, P*P)
	inEdges := make([]int64, P*P)
	dsts := make([][]graph.VertexID, P)
	offsets, targets := g.Offsets(), g.Targets()
	for u := 0; u < n; u++ {
		pu := pt.Assign[u]
		src := pg.Parts[pu]
		for _, v := range targets[offsets[u]:offsets[u+1]] {
			pv := pt.Assign[v]
			if pu == pv {
				src.InnerEdges++
				continue
			}
			dst := pg.Parts[pv]
			src.CrossOut++
			dst.CrossIn++
			boundary.set(graph.VertexID(u))
			boundary.set(v)
			inBoundary.set(v)
			outEdges[int(pu)*P+int(pv)]++
			inEdges[int(pv)*P+int(pu)]++
			dsts[pu] = append(dsts[pu], v)
		}
	}
	for p := 0; p < P; p++ {
		pi := pg.Parts[p]
		// Deduplicate this partition's cross destinations and count the
		// distinct ones per remote partition.
		ds := dsts[p]
		slices.Sort(ds)
		distinct := make([]int64, P)
		pi.CrossDst = ds[:0]
		for i, v := range ds {
			if i > 0 && v == ds[i-1] {
				continue
			}
			pi.CrossDst = append(pi.CrossDst, v)
			distinct[pt.Assign[v]]++
		}
		pi.OutPerPart = make(map[partition.PartID]*CrossStats)
		pi.InPerPart = make(map[partition.PartID]int64)
		for q := 0; q < P; q++ {
			if e := outEdges[p*P+q]; e > 0 {
				pi.OutPerPart[partition.PartID(q)] = &CrossStats{Edges: e, DistinctDst: distinct[q]}
			}
			if e := inEdges[p*P+q]; e > 0 {
				pi.InPerPart[partition.PartID(q)] = e
			}
		}
		for _, v := range pi.Vertices {
			if boundary.has(v) {
				pi.BoundaryCount++
			}
		}
		pi.InnerVertices = int64(len(pi.Vertices)) - pi.BoundaryCount
		pi.Bytes = int64(len(pi.Vertices))*8 + pi.OutEdges()*4
	}
	return pg, nil
}

// TotalCrossEdges sums outgoing cross-partition edges over all partitions.
func (pg *PartitionedGraph) TotalCrossEdges() int64 {
	var c int64
	for _, pi := range pg.Parts {
		c += pi.CrossOut
	}
	return c
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

// Validate cross-checks the metadata invariants: vertex cover, symmetric
// cross-edge counts, boundary consistency.
func (pg *PartitionedGraph) Validate() error {
	total := 0
	for _, pi := range pg.Parts {
		total += len(pi.Vertices)
	}
	if total != pg.G.NumVertices() {
		return fmt.Errorf("storage: partitions cover %d of %d vertices", total, pg.G.NumVertices())
	}
	var outSum, inSum int64
	for _, pi := range pg.Parts {
		outSum += pi.CrossOut
		inSum += pi.CrossIn
	}
	if outSum != inSum {
		return fmt.Errorf("storage: cross-out %d != cross-in %d", outSum, inSum)
	}
	var inner int64
	for _, pi := range pg.Parts {
		inner += pi.InnerEdges
	}
	if inner+outSum != pg.G.NumEdges() {
		return fmt.Errorf("storage: inner %d + cross %d != |E| %d", inner, outSum, pg.G.NumEdges())
	}
	return nil
}
