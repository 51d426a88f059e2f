package partition

import (
	"math/rand"

	"repro/internal/graph"
)

// CrossEdges counts directed edges of g whose endpoints lie in different
// partitions — the objective graph partitioning minimizes (§2).
func CrossEdges(g *graph.Graph, pt *Partitioning) int64 {
	var c int64
	g.ForEachEdge(func(u, v graph.VertexID) bool {
		if pt.Assign[u] != pt.Assign[v] {
			c++
		}
		return true
	})
	return c
}

// InnerEdgeRatio computes ier = ie/|E| (§F.2 Table 5), the fraction of
// directed edges with both endpoints in the same partition.
func InnerEdgeRatio(g *graph.Graph, pt *Partitioning) float64 {
	if g.NumEdges() == 0 {
		return 1
	}
	cross := CrossEdges(g, pt)
	return float64(g.NumEdges()-cross) / float64(g.NumEdges())
}

// InnerVertexRatio computes the fraction of vertices that no
// cross-partition edge touches, in either direction.
func InnerVertexRatio(g *graph.Graph, pt *Partitioning) float64 {
	n := g.NumVertices()
	if n == 0 {
		return 1
	}
	boundary := make([]bool, n)
	g.ForEachEdge(func(u, v graph.VertexID) bool {
		if pt.Assign[u] != pt.Assign[v] {
			boundary[u], boundary[v] = true, true
		}
		return true
	})
	inner := 0
	for _, b := range boundary {
		if !b {
			inner++
		}
	}
	return float64(inner) / float64(n)
}

// Balance reports max partition size divided by the ideal size |V|/P;
// 1.0 is perfect balance.
func Balance(pt *Partitioning) float64 {
	sizes := pt.Sizes()
	max := 0
	for _, s := range sizes {
		if s > max {
			max = s
		}
	}
	ideal := float64(len(pt.Assign)) / float64(pt.P)
	if ideal == 0 {
		return 1
	}
	return float64(max) / ideal
}

// Random assigns vertices to P partitions uniformly at random — the sanity
// baseline of Table 5.
func Random(g *graph.Graph, p int, seed int64) *Partitioning {
	rng := rand.New(rand.NewSource(seed))
	pt := &Partitioning{Assign: make([]PartID, g.NumVertices()), P: p}
	for v := range pt.Assign {
		pt.Assign[v] = PartID(rng.Intn(p))
	}
	return pt
}

// ChoosePartitionCount implements the paper's sizing rule (§4.2):
// P = 2^ceil(log2(||G|| / memoryBytes)) so each partition fits in memory.
// It returns the level count L and P = 2^L; a graph already fitting in
// memory yields L=0, P=1.
func ChoosePartitionCount(graphBytes, memoryBytes int64) (levels, p int) {
	if memoryBytes <= 0 {
		// Unreachable from bytes or flags: core.Build calls this only when MemoryBudget > 0.
		panic("partition: memory budget must be positive")
	}
	levels = 0
	for (graphBytes+((1<<levels)-1))>>levels > memoryBytes {
		levels++
	}
	return levels, 1 << levels
}
