package partition

import (
	"fmt"
	"math/rand"

	"repro/internal/graph"
	"repro/internal/pool"
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
	// Workers sizes the pool the pure phases run on — building each
	// bisection's work graph and each coarse level (0 = GOMAXPROCS, 1 =
	// serial). Matching, GGGP and refinement draw from the one seeded
	// generator and stay serial. The result is identical for every value.
	Workers int
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
	p := pool.New(opt.Workers)
	und := g.UndirectedOn(p)
	n := g.NumVertices()
	// The vertex list every subset is a range of, and the spill the splits
	// pass side 1 through, in one allocation.
	ids := make([]graph.VertexID, 2*n)
	all, spill := ids[:n:n], ids[n:]
	for i := range all {
		all[i] = graph.VertexID(i)
	}
	pt := &Partitioning{Assign: make([]PartID, n), P: 1 << levels}
	rng := rand.New(rand.NewSource(opt.Seed))
	sc := newWScratch(n, p)
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
		l, r := bisectSubset(und, subset, spill, rng, sc)
		divide(l, left-1, first)
		divide(r, left-1, first+1<<(left-1))
	}
	divide(all, levels, 0)
	return pt, &Sketch{levels: levels, assign: pt.Assign}
}

// bisectSubset bisects the subgraph of und induced by subset and splits
// subset in place into the two sides, each in subset order: a stable
// partition through spill, which must be at least as long as subset's side 1.
func bisectSubset(und *graph.Graph, subset, spill []graph.VertexID, rng *rand.Rand, sc *wscratch) (left, right []graph.VertexID) {
	w := newWorkGraph(und, subset, sc)
	side := bisectWork(&w, rng, sc)
	// Side 0 moves down within subset (never past where it reads), side 1
	// waits in spill.
	zeros, ones := 0, 0
	for i, s := range side {
		if s == 0 {
			subset[zeros] = subset[i]
			zeros++
		} else {
			spill[ones] = subset[i]
			ones++
		}
	}
	copy(subset[zeros:], spill[:ones])
	return subset[:zeros:zeros], subset[zeros:]
}
