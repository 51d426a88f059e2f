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
)

// wedge is a weighted adjacency entry in the coarsening work graph.
type wedge struct {
	to int32
	w  int64
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
//   - Inside a bisection, a function's temporaries (contract's members, slot
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
}

// marks is the position of the three bumps that hold temporaries.
type marks struct{ i32, i64, u8 mark }

func (sc *wscratch) marks() marks { return marks{sc.i32.mark(), sc.i64.mark(), sc.u8.mark()} }

func (sc *wscratch) release(m marks) {
	sc.i32.release(m.i32)
	sc.i64.release(m.i64)
	sc.u8.release(m.u8)
}

func newWScratch(n int) *wscratch {
	l := make([]int32, n)
	for i := range l {
		l[i] = -1
	}
	return &wscratch{local: l}
}

// newWorkGraph starts a bisection: it rewinds the arena and builds in it the
// induced weighted subgraph of an undirected graph over the given (global-ID)
// vertex subset; local vertex i is subset[i]. Each undirected edge gets
// weight 1; each vertex is weighted by 1 + its degree, so bisection
// balances partitions by *edge* count — the paper's constraint ("all
// partitions with similar number of edges", §2), which also balances
// per-partition bytes and work on skewed graphs. Adjacency order is the
// neighbor order of und, so und's sortedness and symmetry carry over.
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
	// The induced subgraph has at most the subset's total degree; the unused
	// tail goes back to the arena.
	bound := 0
	for i, v := range subset {
		bound += und.OutDegree(v)
		w.vwgt[i] = 1 + int64(und.OutDegree(v))
	}
	edges := sc.edges.take(bound)[:0]
	w.xadj[0] = 0
	for i, v := range subset {
		for _, nb := range und.Neighbors(v) {
			if j := local[nb]; j >= 0 {
				edges = append(edges, wedge{to: j, w: 1})
			}
		}
		w.xadj[i+1] = int32(len(edges))
	}
	sc.edges.untake(bound - len(edges))
	w.edges = edges[:len(edges):len(edges)]
	for _, v := range subset {
		local[v] = -1
	}
	return w
}

// contract builds the coarse graph given a matching: match[v] is the coarse
// vertex index of v. Parallel edges between the same coarse pair merge with
// summed weight; edges internal to a coarse vertex disappear. It is linear
// in the fine edges: each coarse vertex's row is accumulated in place in the
// coarse slab, slot[cn] remembering where neighbor cn sits in it; the slab
// only grows, so a slot below the current row's start is stale and slot is
// never cleared between rows. Rows are left in first-seen order — no consumer
// needs them sorted (see wgraph).
func (w *wgraph) contract(match []int32, coarseN int, sc *wscratch) wgraph {
	c := wgraph{vwgt: sc.i64.take(coarseN), xadj: sc.i32.take(coarseN + 1)}
	defer sc.release(sc.marks())
	// Group fine vertices by coarse vertex (counting sort).
	clear(c.vwgt)
	start := sc.i32.take(coarseN + 1)
	clear(start)
	for v, cv := range match {
		c.vwgt[cv] += w.vwgt[v]
		start[cv+1]++
	}
	for i := 1; i <= coarseN; i++ {
		start[i] += start[i-1]
	}
	members := sc.i32.take(len(match))
	cursor := sc.i32.take(coarseN)
	copy(cursor, start)
	for v, cv := range match {
		members[cursor[cv]] = int32(v)
		cursor[cv]++
	}

	// The coarse graph has at most as many edges as the fine one; the unused
	// tail goes back to the arena.
	rows := sc.edges.take(len(w.edges))[:0]
	slot := cursor
	for i := range slot {
		slot[i] = -1
	}
	for cv := int32(0); cv < int32(coarseN); cv++ {
		lo := int32(len(rows))
		c.xadj[cv] = lo
		for _, v := range members[start[cv]:start[cv+1]] {
			for _, e := range w.adjOf(int(v)) {
				cn := match[e.to]
				if cn == cv {
					continue
				}
				if s := slot[cn]; s >= lo {
					rows[s].w += e.w
				} else {
					slot[cn] = int32(len(rows))
					rows = append(rows, wedge{to: cn, w: e.w})
				}
			}
		}
	}
	c.xadj[coarseN] = int32(len(rows))
	sc.edges.untake(cap(rows) - len(rows))
	c.edges = rows[:len(rows):len(rows)]
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
		var best int32 = -1
		var bestW int64 = -1
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
