package propagation

import (
	"cmp"
	"fmt"
	"slices"

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
	// pod[p] is the pod of partition p's machine.
	pod []int
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
		toAgg:    make([]int64, p*p),
		inValues: make([]int64, topo.NumPods()*p),
		outBytes: make([]int64, topo.NumPods()*p),
	}
	for i := range t.pod {
		t.pod[i] = topo.Pod(pl.MachineOf[i])
	}
	return t
}

// aggValue is one cross-pod value claimed on its way to the partition whose
// scratch holds it, tagged with the pod it was sent from.
type aggValue[V any] struct {
	pod int
	dst graph.VertexID
	val V
}

// IterateTree runs one propagation iteration with tree aggregation. It
// requires an associative program and applies local propagation and local
// combination unconditionally (the stage exists to squeeze the remaining
// cross-pod traffic; running it without the cheaper optimizations would be
// pointless).
func IterateTree[V any](r *engine.Runner, pg *storage.PartitionedGraph, pl *partition.Placement, prog Program[V], st *State[V], opt Options) (*State[V], engine.Metrics, error) {
	if !prog.Associative() {
		return nil, engine.Metrics{}, fmt.Errorf("propagation: tree aggregation requires an associative program")
	}
	opt.LocalPropagation = true
	opt.LocalCombination = true
	ex, err := newExecution(r.Pool(), pg, pl, prog, st, opt, opt.jobName)
	if err != nil {
		return nil, engine.Metrics{}, err
	}
	topo := r.Topology()
	ex.tree = newTreeAgg(topo, pl)
	next := ex.run()
	m, err := r.Run(ex.buildTreeJob(topo))
	if err != nil {
		return nil, engine.Metrics{}, err
	}
	return next, m, nil
}

// aggregatePart is partition q's share of the Aggregate stage semantics: the
// cross-pod values gatherPart(q) set aside are merged per (sending pod,
// destination vertex) and the one merged value joins the destination's bag
// after its direct arrivals, pods in index order. The stable sort keeps each
// group in gather order — source partitions by index, then log order.
func (ex *execution[V]) aggregatePart(q int) {
	t := ex.tree
	ps := &ex.sc.parts[q]
	np := len(ex.sc.parts)
	slices.SortStableFunc(ps.agg, func(a, b aggValue[V]) int {
		return cmp.Or(cmp.Compare(a.pod, b.pod), cmp.Compare(a.dst, b.dst))
	})
	for i := 0; i < len(ps.agg); {
		k := &ps.agg[i]
		ps.vals = ps.vals[:0]
		for ; i < len(ps.agg) && ps.agg[i].pod == k.pod && ps.agg[i].dst == k.dst; i++ {
			ps.vals = append(ps.vals, ps.agg[i].val)
		}
		merged := ps.vals[0]
		if len(ps.vals) > 1 {
			merged = ex.prog.Merge(k.dst, ps.vals)
		}
		ex.appendBag(ps, k.dst, merged)
		t.outBytes[k.pod*np+q] += ex.prog.Bytes(merged)
		t.inValues[k.pod*np+q] += int64(len(ps.vals))
	}
}

// buildTreeJob assembles the three-stage job: Transfer -> Aggregate/Relay
// -> Combine.
func (ex *execution[V]) buildTreeJob(topo *cluster.Topology) *engine.Job {
	p := ex.pg.Part.P
	t := ex.tree
	costs := ex.opt.costs()
	podMachines := machinesByPod(topo)

	// Stage 2 layout: first P relay tasks forward direct (same-pod)
	// traffic to their combine tasks, then one aggregation task per
	// (pod, dstPart) pair with traffic — pods, then partitions, in index
	// order — spread over the pod's machines by destination partition so the
	// pod's full egress stays usable.
	stage2 := make([]*engine.Task, p, 2*p)
	for q := 0; q < p; q++ {
		stage2[q] = &engine.Task{
			Name:    fmt.Sprintf("relay-p%d", q),
			Kind:    engine.KindCombine,
			Part:    partition.PartID(q),
			Machine: ex.pl.MachineOf[q],
		}
	}
	// aggTask[pod*P+q] is the stage-2 index of the aggregation task of
	// (pod, q); meaningful only where inValues is positive.
	aggTask := make([]int, len(t.inValues))
	// Direct inbound bytes per partition (relay forwarding) and total
	// combine-side arrivals.
	directIn := make([]int64, p)
	for i := 0; i < p; i++ {
		for q := 0; q < p; q++ {
			directIn[q] += ex.remoteBytes[i*p+q]
		}
	}
	received := slices.Clone(directIn)
	for k, in := range t.inValues {
		if in == 0 {
			continue
		}
		pod, q := k/p, k%p
		ms := podMachines[pod]
		aggTask[k] = len(stage2)
		stage2 = append(stage2, &engine.Task{
			Name:    fmt.Sprintf("aggregate-pod%d-to-p%d", pod, q),
			Kind:    engine.KindCombine,
			Part:    engine.NoPart,
			Machine: ms[q%len(ms)],
			Compute: costs.ComputePerValue * float64(in),
			Outputs: []engine.Output{{DstTask: q, Bytes: t.outBytes[k]}},
		})
		received[q] += t.outBytes[k]
	}
	for q := 0; q < p; q++ {
		if directIn[q] > 0 {
			stage2[q].Outputs = []engine.Output{{DstTask: q, Bytes: directIn[q]}}
		}
	}

	transfer := make([]*engine.Task, p)
	combine := make([]*engine.Task, p)
	for i := 0; i < p; i++ {
		pi := ex.pg.Parts[i]
		m := ex.pl.MachineOf[i]
		var outs []engine.Output
		for q := 0; q < p; q++ {
			if b := ex.remoteBytes[i*p+q]; b > 0 {
				outs = append(outs, engine.Output{DstTask: q, Bytes: b})
			}
		}
		for q := 0; q < p; q++ {
			if b := t.toAgg[i*p+q]; b > 0 {
				outs = append(outs, engine.Output{DstTask: aggTask[t.pod[i]*p+q], Bytes: b})
			}
		}
		transfer[i] = &engine.Task{
			Name:      fmt.Sprintf("transfer-p%d", i),
			Kind:      engine.KindTransfer,
			Part:      partition.PartID(i),
			Machine:   m,
			Compute:   costs.ComputePerEdge * float64(pi.OutEdges()),
			DiskRead:  pi.Bytes + ex.stateRead[i],
			DiskWrite: ex.localBytes[i],
			Outputs:   outs,
		}
		combine[i] = &engine.Task{
			Name:      fmt.Sprintf("combine-p%d", i),
			Kind:      engine.KindCombine,
			Part:      partition.PartID(i),
			Machine:   m,
			Compute:   costs.ComputePerValue * float64(ex.combineCount[i]),
			DiskRead:  ex.localBytes[i] + received[i],
			DiskWrite: ex.stateWrite[i],
		}
	}
	name := ex.jobName
	if name == "" {
		name = "propagation-tree-iteration"
	}
	return &engine.Job{
		Name: name,
		Stages: []*engine.Stage{
			{Name: "transfer", Tasks: transfer},
			{Name: "aggregate", Tasks: stage2},
			{Name: "combine", Tasks: combine},
		},
	}
}

// machinesByPod lists each pod's machines in ID order.
func machinesByPod(topo *cluster.Topology) map[int][]cluster.MachineID {
	out := make(map[int][]cluster.MachineID)
	for i := 0; i < topo.NumMachines(); i++ {
		m := cluster.MachineID(i)
		out[topo.Pod(m)] = append(out[topo.Pod(m)], m)
	}
	return out
}

// RunIterationsTree is RunIterations with tree aggregation.
func RunIterationsTree[V any](r *engine.Runner, pg *storage.PartitionedGraph, pl *partition.Placement, prog Program[V], st *State[V], opt Options, iters int) (*State[V], engine.Metrics, error) {
	var total engine.Metrics
	for i := 0; i < iters; i++ {
		opt.jobName = iterName("propagation-tree", i)
		next, m, err := IterateTree(r, pg, pl, prog, st, opt)
		if err != nil {
			return nil, total, err
		}
		total.Add(m)
		st = next
	}
	return st, total, nil
}
