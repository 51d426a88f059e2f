package propagation

import (
	"fmt"
	"math"

	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/partition"
	"repro/internal/storage"
)

// CascadeInfo captures, per vertex, how many propagation iterations can be
// computed from data inside its own partition (§5.2).
//
// Depth[v] = k means every in-path of length <= k into v starts inside v's
// partition, so v's value after k iterations depends only on local data —
// v is in V_k. Depth is InfiniteDepth for vertices never reached by outside
// information (the paper's V_inf).
type CascadeInfo struct {
	Depth []int
	// MinDiameter is d_min, the smallest partition diameter; the paper
	// uses it as the per-phase iteration count of cascaded propagation.
	MinDiameter int
}

// InfiniteDepth marks members of V_inf.
const InfiniteDepth = math.MaxInt32

// AnalyzeCascade computes the cascade depths with one multi-source BFS per
// partition: sources are the vertices receiving a cross-partition in-edge
// (depth 0); following out-edges inside the partition, depth grows by one
// per hop; unreached vertices are V_inf.
func AnalyzeCascade(pg *storage.PartitionedGraph) *CascadeInfo {
	n := pg.G.NumVertices()
	info := &CascadeInfo{Depth: make([]int, n)}
	for i := range info.Depth {
		info.Depth[i] = InfiniteDepth
	}
	// Multi-source BFS across the whole graph at once: initialize every
	// head of a cross-partition edge at depth 0, then relax only along
	// inner edges.
	queue := make([]graph.VertexID, 0, n/4)
	pg.G.ForEachEdge(func(u, v graph.VertexID) bool {
		if pg.Part.Assign[u] != pg.Part.Assign[v] && info.Depth[v] != 0 {
			info.Depth[v] = 0
			queue = append(queue, v)
		}
		return true
	})
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, v := range pg.G.Neighbors(u) {
			if pg.Part.Assign[u] != pg.Part.Assign[v] {
				continue // cross edges already seeded their heads
			}
			if info.Depth[v] > info.Depth[u]+1 {
				info.Depth[v] = info.Depth[u] + 1
				queue = append(queue, v)
			}
		}
	}
	info.MinDiameter = minPartitionDiameter(pg)
	if info.MinDiameter < 1 {
		info.MinDiameter = 1
	}
	return info
}

// VkRatio reports the fraction of vertices in V_k for k >= threshold (the
// paper measures the ratio for k >= 2: 7% on the MSN graph).
func (ci *CascadeInfo) VkRatio(threshold int) float64 {
	if len(ci.Depth) == 0 {
		return 0
	}
	c := 0
	for _, d := range ci.Depth {
		if d >= threshold {
			c++
		}
	}
	return float64(c) / float64(len(ci.Depth))
}

// minPartitionDiameter estimates each partition's internal diameter by
// sampled BFS over inner edges and returns the minimum.
func minPartitionDiameter(pg *storage.PartitionedGraph) int {
	minD := math.MaxInt32
	for _, pi := range pg.Parts {
		d := partitionDiameter(pg, pi)
		if d < minD {
			minD = d
		}
	}
	if minD == math.MaxInt32 {
		return 0
	}
	return minD
}

func partitionDiameter(pg *storage.PartitionedGraph, pi *storage.PartInfo) int {
	if len(pi.Vertices) == 0 {
		return 0
	}
	// Sample a handful of sources; eccentricity within the partition.
	samples := 4
	step := len(pi.Vertices) / samples
	if step == 0 {
		step = 1
	}
	best := 0
	dist := make(map[graph.VertexID]int, len(pi.Vertices))
	for s := 0; s < len(pi.Vertices); s += step {
		src := pi.Vertices[s]
		clear(dist)
		dist[src] = 0
		queue := []graph.VertexID{src}
		for len(queue) > 0 {
			u := queue[0]
			queue = queue[1:]
			for _, v := range pg.G.Neighbors(u) {
				if pg.Part.Assign[v] != pi.ID {
					continue
				}
				if _, ok := dist[v]; !ok {
					dist[v] = dist[u] + 1
					if dist[v] > best {
						best = dist[v]
					}
					queue = append(queue, v)
				}
			}
		}
	}
	return best
}

// RunIterations executes `iters` propagation iterations without cascading:
// each iteration reads the previous state from disk and writes the next
// (the naive multi-iteration approach of §5.2).
func RunIterations[V any](r *engine.Runner, pg *storage.PartitionedGraph, pl *partition.Placement, prog Program[V], st *State[V], opt Options, iters int) (*State[V], engine.Metrics, error) {
	p := planner[V]{pool: r.Pool(), pg: pg, pl: pl, prog: prog, opt: opt, prefix: "propagation"}
	jobs, final, err := p.plan(st, iters, nil)
	return runPlan(r, jobs, final, err)
}

// PlanUntilConverged plans propagation iterations until the summed per-vertex
// delta between consecutive states drops to eps or below, and returns their
// jobs and the final state. delta measures the change of one vertex's value;
// fixpoint algorithms (label propagation, PageRank with a tolerance) use it to
// stop as soon as an iteration changes nothing. maxIters caps the iterations,
// and reaching it while values still change is an error naming it.
func PlanUntilConverged[V any](pool *engine.Pool, pg *storage.PartitionedGraph, pl *partition.Placement, prog Program[V], st *State[V], opt Options, maxIters int, delta func(old, new V) float64, eps float64) ([]*engine.Job, *State[V], error) {
	converged := false
	p := planner[V]{pool: pool, pg: pg, pl: pl, prog: prog, opt: opt, prefix: "propagation"}
	jobs, final, err := p.plan(st, maxIters, func(_ int, prev, next *State[V]) bool {
		var change float64
		for v := range next.Values {
			change += delta(prev.Values[v], next.Values[v])
		}
		converged = change <= eps
		return converged
	})
	if err == nil && !converged {
		err = fmt.Errorf("propagation: values still changing after the cap of %d iteration(s)", maxIters)
	}
	return jobs, final, err
}

// RunCascaded executes `iters` iterations with cascaded propagation: the
// iterations are grouped into phases of d_min; within a phase, iteration j
// (1-based) skips the intermediate state I/O of every vertex with cascade
// depth >= j, because those vertices' values were computable in a batch at
// the phase start. V_inf vertices skip intermediate I/O in every iteration.
// Results are identical to RunIterations; only disk traffic and time shrink.
func RunCascaded[V any](r *engine.Runner, pg *storage.PartitionedGraph, pl *partition.Placement, prog Program[V], st *State[V], opt Options, iters int, ci *CascadeInfo) (*State[V], engine.Metrics, error) {
	if ci == nil {
		ci = AnalyzeCascade(pg)
	}
	p := planner[V]{pool: r.Pool(), pg: pg, pl: pl, prog: prog, opt: opt, prefix: "cascaded", ci: ci}
	jobs, final, err := p.plan(st, iters, nil)
	return runPlan(r, jobs, final, err)
}

// skip is the cascade skip set of iteration i of iters (nil for none, and for
// no ci): iterations at a phase boundary (and the final one) materialize
// everything, later in-phase iterations skip the state I/O of every vertex at
// least as deep as their position in the phase. The pattern is keyed to the
// absolute iteration index, so a replayed iteration skips exactly what the
// original run skipped.
func (ci *CascadeInfo) skip(i, iters int) []bool {
	if ci == nil {
		return nil
	}
	phasePos := i % ci.MinDiameter
	if phasePos == 0 || i == iters-1 {
		return nil
	}
	skip := make([]bool, len(ci.Depth))
	for v, d := range ci.Depth {
		skip[v] = d >= phasePos
	}
	return skip
}
