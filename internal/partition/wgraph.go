// Package partition implements Surfer's graph partitioning (§4): a
// multi-level bisection kernel (coarsen → initial partition → refine →
// uncoarsen, Appendix A.2), recursive bisection into P = 2^L partitions, the
// partition-sketch model with its local-optimality / monotonicity / proximity
// properties, and the bandwidth-aware algorithm (Algorithm 4) that bisects
// the machine graph and the data graph in lockstep to place partitions on
// machine sets whose mutual bandwidth matches their cross-partition edge
// counts.
package partition

import (
	"math/rand"

	"repro/internal/graph"
	"repro/internal/pool"
)

// wedge is a weighted adjacency entry in the coarsening work graph, 8 bytes.
// An int32 weight cannot overflow: newWorkGraph gives every entry weight 1,
// and every coarse weight is a sum of distinct finer entries' weights, so no
// weight — nor the sum of all of a graph's weights — exceeds the level-0
// entry count, which the int32 xadj already holds. Sums over several entries
// (gains, cuts) are int64, as are vertex weights.
type wedge struct {
	to int32
	w  int32
}

// wgraph is the weighted graph the multilevel kernel coarsens, in
// compressed sparse row form: vertex v's adjacency is edges[xadj[v]:
// xadj[v+1]]. Vertex weights count the original vertices collapsed into each
// coarse vertex; edge weights count the original undirected edges collapsed
// into each coarse edge. Both are what bisection must balance and minimize.
//
// Every wgraph is symmetric (u lists (v,w) iff v lists (u,w)), has no
// self-loops and lists each neighbor once: newWorkGraph gets this from
// graph.Undirected's output and contract preserves it. The order within an
// adjacency is not part of the contract. Gains and cuts are sums, and the one
// order-sensitive choice — which of several equally heavy neighbors a vertex
// is matched with — is made by neighbor index, so the sorted rows of level 0
// and the first-seen rows contract emits decide alike and coarsening never
// sorts. The arrays live in the run's wscratch.
type wgraph struct {
	vwgt  []int64
	xadj  []int32
	edges []wedge
}

func (w *wgraph) n() int { return len(w.vwgt) }

// adjOf returns vertex v's adjacency as a shared, read-only slice.
func (w *wgraph) adjOf(v int) []wedge { return w.edges[w.xadj[v]:w.xadj[v+1]] }

// totalVertexWeight sums all vertex weights (invariant under coarsening).
func (w *wgraph) totalVertexWeight() int64 {
	var s int64
	for _, v := range w.vwgt {
		s += v
	}
	return s
}

// bump is a stack allocator of []T. take carves the next n elements out of
// the current chunk, or out of a new one when no chunk has room; chunks live
// as long as the allocator, so once the first (largest) bisection of a run
// has sized them the rest of the run allocates nothing. Memory comes back
// dirty: every caller initialises what it reads.
type bump[T any] struct {
	chunks  [][]T
	ci, off int
}

// mark is a position in a bump; releasing it frees everything taken since.
// The zero mark is the start.
type mark struct{ ci, off int }

// minChunk keeps the small arrays of deep coarsening levels from each
// becoming a chunk of their own.
const minChunk = 1 << 12

func (b *bump[T]) take(n int) []T {
	for ; b.ci < len(b.chunks); b.ci, b.off = b.ci+1, 0 {
		if c := b.chunks[b.ci]; len(c)-b.off >= n {
			b.off += n
			return c[b.off-n : b.off : b.off]
		}
	}
	b.chunks = append(b.chunks, make([]T, max(n, minChunk)))
	b.off = n
	return b.chunks[b.ci][:n:n]
}

// untake gives back the last n elements of the latest take.
func (b *bump[T]) untake(n int) { b.off -= n }

func (b *bump[T]) mark() mark     { return mark{b.ci, b.off} }
func (b *bump[T]) release(m mark) { b.ci, b.off = m.ci, m.off }

// wscratch is the arena of one partitioning run (one RecursiveBisect call).
// Lifetimes:
//
//   - local is the global→local vertex index (full graph size, all -1
//     between uses), so inducing a subgraph never hashes.
//   - newWorkGraph rewinds the bumps. Everything a bisection takes — the work
//     graph, each coarse level's vwgt/xadj/edges and matching, the side
//     arrays, bisectWork's result — is valid until the next newWorkGraph on
//     the same scratch, and no longer.
//   - Inside a bisection, a function's temporaries (contract's members, slots
//     and cursors, the matching's visit order, refine's gains) are taken
//     after a marks() and handed back by release when it returns.
//
// The root bisection is the largest, so it sizes the chunks; the 2^L-2
// bisections below it reuse them instead of allocating and zeroing fresh
// slabs for every coarsening level.
type wscratch struct {
	local  []int32
	levels []level
	i32    bump[int32]
	i64    bump[int64]
	u8     bump[uint8]
	edges  bump[wedge]
	job    rangeJob
}

// marks is the position of the three bumps that hold temporaries.
type marks struct{ i32, i64, u8 mark }

func (sc *wscratch) marks() marks { return marks{sc.i32.mark(), sc.i64.mark(), sc.u8.mark()} }

func (sc *wscratch) release(m marks) {
	sc.i32.release(m.i32)
	sc.i64.release(m.i64)
	sc.u8.release(m.u8)
}

// newWScratch makes the arena of a run over n vertices whose pure phases run
// on p (nil: serially).
func newWScratch(n int, p *pool.Pool) *wscratch {
	l := make([]int32, n)
	for i := range l {
		l[i] = -1
	}
	sc := &wscratch{local: l}
	sc.job.setRanges(p.Ranges(), rangeGrain)
	if p != nil {
		sc.job.pool = *p
	}
	sc.job.run = sc.job.runRange
	return sc
}

// newWorkGraph starts a bisection: it rewinds the arena and builds in it the
// induced weighted subgraph of an undirected graph over the given (global-ID)
// vertex subset; local vertex i is subset[i]. Each undirected edge gets
// weight 1; each vertex is weighted by 1 + its degree, so bisection
// balances partitions by *edge* count — the paper's constraint ("all
// partitions with similar number of edges", §2), which also balances
// per-partition bytes and work on skewed graphs. Adjacency order is the
// neighbor order of und, so und's sortedness and symmetry carry over. The
// rows are built on the pool (rangeJob).
func newWorkGraph(und *graph.Graph, subset []graph.VertexID, sc *wscratch) wgraph {
	sc.release(marks{})
	sc.edges.release(mark{})
	local := sc.local
	for i, v := range subset {
		local[v] = int32(i)
	}
	w := wgraph{
		vwgt: sc.i64.take(len(subset)),
		xadj: sc.i32.take(len(subset) + 1),
	}
	// The induced subgraph has at most the subset's total degree, and row i
	// at most subset[i]'s degree; the unused tail goes back to the arena.
	w.xadj[0] = 0
	for i, v := range subset {
		d := und.OutDegree(v)
		w.vwgt[i] = 1 + int64(d)
		w.xadj[i+1] = w.xadj[i] + int32(d)
	}
	bound := w.xadj[len(subset)]
	j := &sc.job
	j.phase, j.xadj, j.out, j.und, j.subset, j.local = induce, w.xadj, sc.edges.take(int(bound)), und, subset, local
	k := j.split(len(subset))
	j.pool.ForEach(k, j.run)
	n := j.join(k)
	sc.edges.untake(int(bound - n))
	w.edges = j.out[:n:n]
	for _, v := range subset {
		local[v] = -1
	}
	return w
}

// contract builds the coarse graph given a matching: match[v] is the coarse
// vertex index of v. Parallel edges between the same coarse pair merge with
// summed weight; edges internal to a coarse vertex disappear. It is linear
// in the fine edges: fine vertices are grouped by coarse vertex, and each
// coarse vertex's row is accumulated in place in the coarse slab (see
// contractRange); the rows are built on the pool (rangeJob). Rows are left in
// first-seen order — no consumer needs them sorted (see wgraph).
func (w *wgraph) contract(match []int32, coarseN int, sc *wscratch) wgraph {
	c := wgraph{vwgt: sc.i64.take(coarseN), xadj: sc.i32.take(coarseN + 1)}
	defer sc.release(sc.marks())
	// Group fine vertices by coarse vertex (counting sort), and bound each
	// coarse row by its members' fine degrees, as a prefix in xadj.
	clear(c.vwgt)
	clear(c.xadj)
	start := sc.i32.take(coarseN + 1)
	clear(start)
	for v, cv := range match {
		c.vwgt[cv] += w.vwgt[v]
		start[cv+1]++
		c.xadj[cv+1] += w.xadj[v+1] - w.xadj[v]
	}
	for i := 1; i <= coarseN; i++ {
		start[i] += start[i-1]
		c.xadj[i] += c.xadj[i-1]
	}
	j := &sc.job
	j.phase, j.xadj = coarsen, c.xadj
	k := j.split(coarseN)
	members := sc.i32.take(len(match))
	// The first range's slot array doubles as the grouping's cursors.
	j.slots = sc.i32.take(k * coarseN)
	cursor := j.slots[:coarseN]
	copy(cursor, start)
	for v, cv := range match {
		members[cursor[cv]] = int32(v)
		cursor[cv]++
	}

	// The coarse graph has at most as many edges as the fine one; the unused
	// tail goes back to the arena.
	j.out, j.g, j.match, j.start, j.members = sc.edges.take(len(w.edges)), *w, match, start, members
	j.pool.ForEach(k, j.run)
	n := j.join(k)
	sc.edges.untake(len(w.edges) - int(n))
	c.edges = j.out[:n:n]
	return c
}

// heavyEdgeMatching computes a matching for coarsening: vertices are visited
// in random order; each unmatched vertex is matched with its unmatched
// neighbor of maximum edge weight (the paper's multilevel scheme [15,16]),
// the lowest-numbered one among equals — a choice that does not depend on
// the order of the adjacency (see wgraph). It returns the fine→coarse map
// and the coarse vertex count.
func (w *wgraph) heavyEdgeMatching(rng *rand.Rand, sc *wscratch) ([]int32, int) {
	n := w.n()
	match := sc.i32.take(n)
	for i := range match {
		match[i] = -1
	}
	defer sc.release(sc.marks())
	// rand.Perm's draws and result, in the arena instead of a fresh []int.
	order := sc.i32.take(n)
	for i := range order {
		j := rng.Intn(i + 1)
		order[i] = order[j]
		order[j] = int32(i)
	}
	next := int32(0)
	for _, v := range order {
		if match[v] >= 0 {
			continue
		}
		var best, bestW int32 = -1, -1
		for _, e := range w.adjOf(int(v)) {
			// Weight first: it is at hand, match[e.to] is a cache miss.
			if (e.w > bestW || e.w == bestW && e.to < best) && match[e.to] < 0 && e.to != v {
				bestW, best = e.w, e.to
			}
		}
		match[v] = next
		if best >= 0 {
			match[best] = next
		}
		next++
	}
	return match, int(next)
}
