package graph

// DegreeHistogram returns a map from out-degree to the number of vertices
// with that out-degree. This is the reference computation for the Vertex
// Degree Distribution (VDD) application.
func (g *Graph) DegreeHistogram() map[int]int64 {
	h := make(map[int]int64)
	for v := 0; v < g.NumVertices(); v++ {
		h[g.OutDegree(VertexID(v))]++
	}
	return h
}

// BFSDistances computes shortest-path hop distances from src following out
// edges. Unreachable vertices get -1.
func (g *Graph) BFSDistances(src VertexID) []int {
	dist := make([]int, g.NumVertices())
	for i := range dist {
		dist[i] = -1
	}
	dist[src] = 0
	queue := []VertexID{src}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, v := range g.Neighbors(u) {
			if dist[v] < 0 {
				dist[v] = dist[u] + 1
				queue = append(queue, v)
			}
		}
	}
	return dist
}
