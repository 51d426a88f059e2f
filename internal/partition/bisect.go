package partition

import (
	"math/rand"
)

// bisection kernel parameters.
const (
	// coarsenTarget stops coarsening once the graph is this small; the
	// paper coarsens to "the scale of thousands of vertices" — a smaller
	// target is fine at our laptop scale and GGGP handles the rest.
	coarsenTarget = 256
	// coarsenMinShrink aborts coarsening when a round shrinks the graph by
	// less than this factor (heavy-edge matching has stalled).
	coarsenMinShrink = 0.95
	// gggpTrials is how many seeds GGGP grows, keeping the best cut.
	gggpTrials = 4
	// balanceTolerance allows each side of a bisection to exceed half the
	// total vertex weight by this fraction.
	balanceTolerance = 0.03
)

// level is one rung of the coarsening ladder: a graph and, once it has been
// coarsened, the matching that maps its vertices to the next rung's.
type level struct {
	g     wgraph
	match []int32
}

// bisectWork splits a weighted graph into two sides, returning side[v] in
// {0,1} for every vertex. It is the full multilevel pipeline of Appendix A.2:
// coarsening with heavy-edge matching, GGGP on the coarsest graph, and
// FM boundary refinement at every uncoarsening step. w must have been built
// by newWorkGraph on sc; the result lives in sc like w does.
func bisectWork(w *wgraph, rng *rand.Rand, sc *wscratch) []uint8 {
	if w.n() < 2 {
		side := sc.u8.take(w.n())
		clear(side)
		return side
	}
	// Coarsening phase: remember the matchings to project back.
	levels := append(sc.levels[:0], level{g: *w})
	for cur := w; cur.n() > coarsenTarget; cur = &levels[len(levels)-1].g {
		match, cn := cur.heavyEdgeMatching(rng, sc)
		if float64(cn) > coarsenMinShrink*float64(cur.n()) {
			break
		}
		levels[len(levels)-1].match = match
		levels = append(levels, level{g: cur.contract(match, cn, sc)})
	}
	sc.levels = levels

	// Initial partitioning on the coarsest graph.
	coarsest := &levels[len(levels)-1].g
	side := gggp(coarsest, rng, sc)
	refine(coarsest, side, sc)

	// Uncoarsening: project the partition to the finer graph and refine.
	for li := len(levels) - 2; li >= 0; li-- {
		side = project(side, levels[li].match, sc)
		refine(&levels[li].g, side, sc)
	}
	return side
}

// project carries a coarse bisection down one level: every fine vertex takes
// the side of the coarse vertex it was matched into.
func project(side []uint8, match []int32, sc *wscratch) []uint8 {
	fine := sc.u8.take(len(match))
	for v, cv := range match {
		fine[v] = side[cv]
	}
	return fine
}

// gggp performs Greedy Graph Growing Partitioning [15] on the coarsest
// graph: from a random seed, grow side 0 by repeatedly absorbing the
// frontier vertex (neighbor of side 0) with maximum gain, lowest index first
// among equals, until it holds half the vertex weight. Several trials are
// run and the best cut wins. The frontier is a heap keyed by (gain, index),
// so a trial costs O((n+E) log n) however long matching left the graph —
// when heavy-edge matching stalls on a hub, n is not "thousands".
func gggp(w *wgraph, rng *rand.Rand, sc *wscratch) []uint8 {
	n := w.n()
	half := w.totalVertexWeight() / 2

	side, bestSide := sc.u8.take(n), sc.u8.take(n)
	defer sc.release(sc.marks())
	// gain[v] = (weight of edges from v into side 0) - (weight into side 1);
	// moving a high-gain frontier vertex into side 0 shrinks the cut.
	f := frontier{gain: sc.i64.take(n), heap: sc.i32.take(n), pos: sc.i32.take(n)}
	bestCut := int64(-1)
	for trial := 0; trial < gggpTrials; trial++ {
		for v := range side {
			side[v] = 1
			f.pos[v] = -1
			f.gain[v] = 0
			for _, e := range w.adjOf(v) {
				f.gain[v] -= int64(e.w)
			}
		}
		f.heap = f.heap[:0]
		var grown int64
		add := func(v int) {
			side[v] = 0
			grown += w.vwgt[v]
			for _, e := range w.adjOf(v) {
				f.gain[e.to] += 2 * int64(e.w)
				if side[e.to] == 1 {
					f.raise(e.to)
				}
			}
		}
		add(rng.Intn(n))
		// free is the lowest index that may still be on side 1.
		for free := 0; grown < half; {
			if len(f.heap) > 0 {
				add(int(f.pop()))
				continue
			}
			// Empty frontier (disconnected graph): fall back to the lowest
			// unabsorbed vertex.
			for free < n && side[free] == 0 {
				free++
			}
			if free == n {
				break
			}
			add(free)
		}
		cut := cutWeight(w, side)
		if bestCut < 0 || cut < bestCut {
			bestCut = cut
			side, bestSide = bestSide, side
		}
	}
	return bestSide
}

// frontier is GGGP's priority queue: an indexed binary heap of the vertices
// adjacent to side 0, ordered by higher gain, then lower index. Gains only
// rise while a side grows, so raise is the only re-keying it needs.
type frontier struct {
	gain []int64
	heap []int32 // heap[i] is a vertex
	pos  []int32 // pos[v] is v's index in heap, or -1
}

func (f *frontier) before(a, b int32) bool {
	return f.gain[a] > f.gain[b] || f.gain[a] == f.gain[b] && a < b
}

// raise inserts v if it is absent and restores heap order after its gain
// went up.
func (f *frontier) raise(v int32) {
	i := f.pos[v]
	if i < 0 {
		i = int32(len(f.heap))
		f.heap = append(f.heap, v)
	}
	for i > 0 {
		p := (i - 1) / 2
		if !f.before(v, f.heap[p]) {
			break
		}
		f.heap[i] = f.heap[p]
		f.pos[f.heap[i]] = i
		i = p
	}
	f.heap[i], f.pos[v] = v, i
}

// pop removes and returns the first vertex in heap order.
func (f *frontier) pop() int32 {
	top := f.heap[0]
	f.pos[top] = -1
	last := f.heap[len(f.heap)-1]
	f.heap = f.heap[:len(f.heap)-1]
	n := int32(len(f.heap))
	if n == 0 {
		return top
	}
	i := int32(0)
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if c+1 < n && f.before(f.heap[c+1], f.heap[c]) {
			c++
		}
		if !f.before(f.heap[c], last) {
			break
		}
		f.heap[i] = f.heap[c]
		f.pos[f.heap[i]] = i
		i = c
	}
	f.heap[i], f.pos[last] = last, i
	return top
}

// cutWeight sums the weight of edges crossing the bisection. Each undirected
// edge appears twice in adj, so the sum is halved.
func cutWeight(w *wgraph, side []uint8) int64 {
	var s int64
	for v := 0; v < w.n(); v++ {
		for _, e := range w.adjOf(v) {
			if side[v] != side[e.to] {
				s += int64(e.w)
			}
		}
	}
	return s / 2
}

// refine runs Fiduccia–Mattheyses-style boundary refinement: passes of
// single-vertex moves in vertex order with a balance constraint, until a
// pass moves nothing ("local refinement can significantly improve the
// partition quality", Appendix A.2). gain[v], the cut reduction if v changed
// sides, is computed once and then maintained: a move negates the mover's
// gain and shifts each neighbor's by twice the edge weight, so a sweep costs
// O(n + degree of what moved) rather than O(E), and reads exactly the values
// a fresh recomputation would.
func refine(w *wgraph, side []uint8, sc *wscratch) {
	n := w.n()
	total := w.totalVertexWeight()
	maxSide := total/2 + int64(float64(total)*balanceTolerance) + 1

	defer sc.release(sc.marks())
	gain := sc.i64.take(n)
	sideWeight := [2]int64{}
	for v := 0; v < n; v++ {
		sv := side[v]
		sideWeight[sv] += w.vwgt[v]
		var g int64
		for _, e := range w.adjOf(v) {
			// Widen once, negate, then add: two widening branches ran
			// BenchmarkRefine 1.7x slower.
			d := int64(e.w)
			if side[e.to] == sv {
				d = -d
			}
			g += d
		}
		gain[v] = g
	}
	for pass := 0; pass < 8; pass++ {
		improved := false
		// One sweep: move any vertex with positive gain whose move keeps
		// balance. Greedy single-sweep FM is sufficient at our scales.
		for v := 0; v < n; v++ {
			g := gain[v]
			if g <= 0 {
				continue
			}
			from := side[v]
			to := 1 - from
			if sideWeight[to]+w.vwgt[v] > maxSide {
				continue
			}
			side[v] = to
			sideWeight[from] -= w.vwgt[v]
			sideWeight[to] += w.vwgt[v]
			gain[v] = -g
			for _, e := range w.adjOf(v) {
				d := 2 * int64(e.w)
				if side[e.to] == to {
					d = -d
				}
				gain[e.to] += d
			}
			improved = true
		}
		if !improved {
			break
		}
	}
}
