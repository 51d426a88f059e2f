package partition

import (
	"bytes"
	"fmt"
	"math/rand"

	"repro/internal/graph"
)

// PartID identifies a partition, densely numbered 0..P-1. The numbering
// follows the partition sketch: leaf i of the sketch (left to right) is
// partition i, so partitions i and i^1 are sketch siblings.
type PartID int32

// Partitioning assigns every vertex of a data graph to one of P partitions.
type Partitioning struct {
	// Assign[v] is the partition of vertex v.
	Assign []PartID
	// P is the number of partitions (a power of two for sketch-produced
	// partitionings; arbitrary for random ones).
	P int
}

// NumVertices reports the number of assigned vertices.
func (pt *Partitioning) NumVertices() int { return len(pt.Assign) }

// Validate checks the cover invariant: every vertex has a partition in
// [0, P). It returns an error describing the first violation.
func (pt *Partitioning) Validate() error {
	for v, p := range pt.Assign {
		if p < 0 || int(p) >= pt.P {
			return fmt.Errorf("partition: vertex %d assigned to invalid partition %d (P=%d)", v, p, pt.P)
		}
	}
	return nil
}

// Sizes returns the number of vertices in each partition.
func (pt *Partitioning) Sizes() []int {
	sizes := make([]int, pt.P)
	for _, p := range pt.Assign {
		sizes[p]++
	}
	return sizes
}

// Options configures the recursive bisection partitioner.
type Options struct {
	// Seed drives all randomized steps (matching order, GGGP seeds).
	Seed int64
}

// RecursiveBisect partitions g into P = 2^levels partitions with multilevel
// recursive bisection on the undirected view of g, and returns both the
// partitioning and its partition sketch. It is the only recursion over the
// data graph; machine placement (SketchPlacement, RandomPlacement) and the
// cost model's machine side are layered on top of its sketch.
func RecursiveBisect(g *graph.Graph, levels int, opt Options) (*Partitioning, *Sketch) {
	if levels < 0 {
		// Unreachable from bytes or flags: core.Build's Levels range check, or surfer-bench's -levels check, runs first.
		panic("partition: negative level count")
	}
	und := g.Undirected()
	n := g.NumVertices()
	all := make([]graph.VertexID, n)
	for i := range all {
		all[i] = graph.VertexID(i)
	}
	pt := &Partitioning{Assign: make([]PartID, n), P: 1 << levels}
	rng := rand.New(rand.NewSource(opt.Seed))
	sc := newWScratch(n)
	// divide gives subset the 2^left partition IDs from first, left to
	// right, so that sketch leaf order is partition order.
	var divide func(subset []graph.VertexID, left int, first PartID)
	divide = func(subset []graph.VertexID, left int, first PartID) {
		if left == 0 {
			for _, v := range subset {
				pt.Assign[v] = first
			}
			return
		}
		l, r := bisectSubset(und, subset, rng, sc)
		divide(l, left-1, first)
		divide(r, left-1, first+1<<(left-1))
	}
	divide(all, levels, 0)
	return pt, &Sketch{levels: levels, assign: pt.Assign}
}

// bisectSubset bisects the subgraph of und induced by subset and returns the
// two sides, each in subset order.
func bisectSubset(und *graph.Graph, subset []graph.VertexID, rng *rand.Rand, sc *wscratch) (left, right []graph.VertexID) {
	w := newWorkGraph(und, subset, sc)
	side := bisectWork(&w, rng, sc)
	zeros := bytes.Count(side, []byte{0})
	out := make([]graph.VertexID, len(subset))
	next := [2]int{0, zeros} // where the next vertex of each side goes
	for i, s := range side {
		out[next[s]] = subset[i]
		next[s]++
	}
	return out[:zeros:zeros], out[zeros:]
}
