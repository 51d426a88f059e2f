package propagation

import (
	"repro/internal/cluster"
	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/partition"
	"repro/internal/storage"
)

// Tree aggregation is an extension beyond the paper's per-partition local
// combination: the multi-level data reduction along the switch tree that
// §2 credits to cloud systems like MapReduce and DryadLINQ [5, 23].
//
// With local combination, every partition ships one merged value per
// remote destination vertex — but when several partitions of one pod all
// send values for the same destination into another pod, the same vertex's
// data crosses the oversubscribed top-level switch several times. Tree
// aggregation inserts an Aggregate stage: cross-pod values first converge
// inside the sending pod over cheap intra-pod links, are merged per
// destination vertex, and only one value per (pod, destination) crosses
// the tree. To keep the pod's full egress bandwidth, the aggregation work
// is spread over the pod's machines by destination partition rather than
// funneled through a single aggregator. Combine's associativity makes the
// results identical; only traffic moves.

// treeAgg is the Aggregate stage's accounting for one iteration. Like every
// other table of the execution it is split by owner: gatherPart(q) claims the
// cross-pod values headed to partition q and writes only column q of each
// table, so the pool fills it without a lock.
type treeAgg struct {
	// pod[p] is the pod of partition p's machine; machines lists each pod's
	// machines in ID order.
	pod      []int
	machines [][]cluster.MachineID
	// toAgg is the flat P×P [src*P+dst] bytes partition src ships to its
	// pod's aggregation task for partition dst, over intra-pod links.
	toAgg []int64
	// inValues and outBytes are flat pods×P [pod*P+dst]: the values folded
	// by, and the merged bytes leaving, the aggregation task of (pod, dst).
	// The task exists when it folded at least one value.
	inValues []int64
	outBytes []int64
}

func newTreeAgg(topo *cluster.Topology, pl *partition.Placement) *treeAgg {
	p := pl.NumPartitions()
	t := &treeAgg{
		pod:      make([]int, p),
		machines: make([][]cluster.MachineID, topo.NumPods()),
		toAgg:    make([]int64, p*p),
		inValues: make([]int64, topo.NumPods()*p),
		outBytes: make([]int64, topo.NumPods()*p),
	}
	for i := range t.pod {
		t.pod[i] = topo.Pod(pl.MachineOf[i])
	}
	for i := 0; i < topo.NumMachines(); i++ {
		m := cluster.MachineID(i)
		t.machines[topo.Pod(m)] = append(t.machines[topo.Pod(m)], m)
	}
	return t
}

// aggregatePart is partition q's share of the Aggregate stage semantics: the
// cross-pod values gatherPart(q) set aside, keyed pod<<32 | destination, are
// grouped by (sending pod, destination vertex) and each group's merged value
// joins the destination's bag after its direct arrivals, pods in index order.
// The grouping is stable, so each group keeps gather order — source
// partitions by index, then log order — and Merge sees a capped window of it.
func (ex *execution[V]) aggregatePart(q int) {
	t, ps, np := ex.tree, &ex.sc.parts[q], len(ex.sc.parts)
	ps.ab.Build(&ps.alog, true, 1, nil)
	start := int32(0)
	for _, g := range ps.alog.Groups {
		pod, dst := int(g.Key>>32), graph.VertexID(g.Key)
		merged := ps.alog.Vals[start]
		if g.End-start > 1 {
			merged = ex.prog.Merge(dst, ps.alog.Vals[start:g.End:g.End])
		}
		ex.appendBag(ps, dst, merged)
		t.outBytes[pod*np+q] += ex.prog.Bytes(merged)
		t.inValues[pod*np+q] += int64(g.End - start)
		start = g.End
	}
}

// RunIterationsTree is RunIterations with tree aggregation, for an
// associative program, with local propagation and combination always on.
func RunIterationsTree[V any](r *engine.Runner, pg *storage.PartitionedGraph, pl *partition.Placement, prog Program[V], st *State[V], opt Options, iters int) (*State[V], engine.Metrics, error) {
	p := planner[V]{pool: r.Pool(), pg: pg, pl: pl, prog: prog, opt: opt, prefix: "propagation-tree", topo: r.Topology()}
	jobs, final, err := p.plan(st, iters, nil)
	return runPlan(r, jobs, final, err)
}
