package partition

import (
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

// Members returns the vertex lists of all partitions, each sorted by ID.
func (pt *Partitioning) Members() [][]graph.VertexID {
	sizes := pt.Sizes()
	out := make([][]graph.VertexID, pt.P)
	for p := range out {
		out[p] = make([]graph.VertexID, 0, sizes[p])
	}
	for v, p := range pt.Assign {
		out[p] = append(out[p], graph.VertexID(v))
	}
	return out
}

// Options configures the recursive bisection partitioner.
type Options struct {
	// Seed drives all randomized steps (matching order, GGGP seeds).
	Seed int64
}

// RecursiveBisect partitions g into P = 2^levels partitions with multilevel
// recursive bisection on the undirected view of g, and returns both the
// partitioning and its partition sketch. This is the pure partitioning
// kernel; machine placement is layered on top by BandwidthAware and
// ParMetisLike.
func RecursiveBisect(g *graph.Graph, levels int, opt Options) (*Partitioning, *Sketch) {
	if levels < 0 {
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
	sk := newSketch(levels)
	bisectRecursive(und, all, 0, levels, 0, pt, sk, rng, newWScratch(n))
	return pt, sk
}

// bisectRecursive splits subset into 2^(levels-depth) partitions, assigning
// partition IDs so that the sketch leaf order matches partition order.
// node is the sketch node index covering subset.
func bisectRecursive(und *graph.Graph, subset []graph.VertexID, depth, levels int, firstPart PartID, pt *Partitioning, sk *Sketch, rng *rand.Rand, sc *wscratch) {
	sk.setNode(depth, int(firstPart)>>(levels-depth), subset)
	if depth == levels {
		for _, v := range subset {
			pt.Assign[v] = firstPart
		}
		return
	}
	left, right := bisectSubset(und, subset, rng, sc)
	half := 1 << (levels - depth - 1)
	bisectRecursive(und, left, depth+1, levels, firstPart, pt, sk, rng, sc)
	bisectRecursive(und, right, depth+1, levels, firstPart+PartID(half), pt, sk, rng, sc)
}

// bisectSubset bisects the subgraph of und induced by subset and returns the
// two sides, each in subset order.
func bisectSubset(und *graph.Graph, subset []graph.VertexID, rng *rand.Rand, sc *wscratch) (left, right []graph.VertexID) {
	w := newWorkGraph(und, subset, sc)
	side := bisectWork(&w, rng, sc)
	zeros := 0
	for _, s := range side {
		if s == 0 {
			zeros++
		}
	}
	out := make([]graph.VertexID, len(subset))
	l, r := 0, zeros
	for i, s := range side {
		if s == 0 {
			out[l] = subset[i]
			l++
		} else {
			out[r] = subset[i]
			r++
		}
	}
	return out[:zeros:zeros], out[zeros:]
}
