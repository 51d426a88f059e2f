package partition

import (
	"fmt"
	"math/bits"

	"repro/internal/graph"
)

// Sketch is the partition sketch of §4.1: a balanced binary tree modeling
// the multi-level bisection process. The root (depth 0) is the whole data
// graph; the node at (depth, index) holds the vertex set fed to the bisection
// at that point; the 2^levels leaves are the final partitions, ordered so
// that leaf i is partition i.
//
// The tree is a view of the partition IDs, not a copy of the vertex sets:
// RecursiveBisect numbers the leaves left to right, so node (depth, index) is
// {v : Assign[v] >> (levels-depth) == index}. The sketch shares
// Partitioning.Assign and only reads it.
type Sketch struct {
	levels int
	assign []PartID
}

// Levels reports the leaf depth; the tree has Levels+1 levels and 2^Levels
// leaves (the paper's "(log2 P + 1) levels").
func (s *Sketch) Levels() int { return s.levels }

// NumPartitions reports the number of leaves.
func (s *Sketch) NumPartitions() int { return 1 << s.levels }

// Node returns the vertex set of sketch node (depth, index) in ascending ID
// order — the order the bisection at that node saw it in.
func (s *Sketch) Node(depth, index int) []graph.VertexID {
	shift := s.levels - depth
	var set []graph.VertexID
	for v, p := range s.assign {
		if int(p)>>shift == index {
			set = append(set, graph.VertexID(v))
		}
	}
	return set
}

// CrossEdges counts C(n1, n2): directed edges of g with one endpoint in
// sketch node (depth, i) and the other in (depth, j), in either direction.
func (s *Sketch) CrossEdges(g *graph.Graph, depth, i, j int) int64 {
	shift := s.levels - depth
	var count int64
	g.ForEachEdge(func(u, v graph.VertexID) bool {
		a, b := int(s.assign[u])>>shift, int(s.assign[v])>>shift
		if (a == i && b == j) || (a == j && b == i) {
			count++
		}
		return true
	})
	return count
}

// LevelCrossEdges computes T_l: the total number of directed edges of g
// crossing between any two distinct sketch nodes at depth l. The
// monotonicity property (§4.1) states T_i <= T_j for i <= j on an ideal
// sketch.
func (s *Sketch) LevelCrossEdges(g *graph.Graph, depth int) int64 {
	shift := s.levels - depth
	var count int64
	g.ForEachEdge(func(u, v graph.VertexID) bool {
		if s.assign[u]>>shift != s.assign[v]>>shift {
			count++
		}
		return true
	})
	return count
}

// nodeSizes sizes every sketch node in one pass over the IDs and the edges of
// g: its vertex count and the directed edges with both endpoints inside it.
// Nodes are in heap order — root 1, children of k at 2k and 2k+1, so node
// (d, i) is 1<<d + i. An edge belongs to the deepest node holding both its
// endpoints — bits.Len(a^b) levels above the leaves a and b — and to every
// ancestor of that node, so the counts are summed bottom-up. A nil g leaves
// the edge counts zero.
func (s *Sketch) nodeSizes(g *graph.Graph) (vertices []int, edges []int64) {
	leaves := s.NumPartitions()
	vertices, edges = make([]int, 2*leaves), make([]int64, 2*leaves)
	for u, a := range s.assign {
		vertices[leaves+int(a)]++
		if g == nil {
			continue
		}
		for _, v := range g.Neighbors(graph.VertexID(u)) {
			b := s.assign[v]
			edges[(leaves+int(a))>>bits.Len32(uint32(a^b))]++
		}
	}
	for k := leaves - 1; k >= 1; k-- {
		vertices[k] = vertices[2*k] + vertices[2*k+1]
		edges[k] += edges[2*k] + edges[2*k+1]
	}
	return vertices, edges
}

// Validate checks that the sketch is a view of the given partitioning: the
// same partition count, the same vertices, the same IDs.
func (s *Sketch) Validate(pt *Partitioning) error {
	if pt.P != s.NumPartitions() || len(pt.Assign) != len(s.assign) {
		return fmt.Errorf("sketch: %d leaves over %d vertices, partitioning has %d over %d", s.NumPartitions(), len(s.assign), pt.P, len(pt.Assign))
	}
	for v, leaf := range s.assign {
		if pt.Assign[v] != leaf {
			return fmt.Errorf("sketch: leaf %d contains vertex %d assigned to %d", leaf, v, pt.Assign[v])
		}
	}
	return nil
}
