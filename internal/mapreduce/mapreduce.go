// Package mapreduce is Surfer's second primitive (§3.1): a home-grown
// MapReduce over the partitioned graph. Map takes a whole graph partition as
// input (so developers can hand-roll partition-level data reduction), but
// the shuffle between Map and Reduce is ordinary hash partitioning —
// oblivious to graph partitions and to the machines that own the
// destination vertices. That obliviousness is exactly what propagation
// removes, and what the Figure 7 comparison measures.
package mapreduce

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/engine"
	"repro/internal/exchange"
	"repro/internal/graph"
	"repro/internal/partition"
	"repro/internal/storage"
)

// Key constrains MapReduce keys to integer-like types so the shuffle can
// hash them deterministically.
type Key = exchange.Key

// Program is the user-defined logic of a MapReduce application on the
// partitioned graph.
type Program[K Key, V any, R any] interface {
	// Map processes one partition and emits key/value pairs. The graph
	// gives access to the adjacency lists of the partition's vertices.
	Map(pi *storage.PartInfo, g *graph.Graph, emit func(K, V))
	// Reduce folds all values of one key into a result. values is a window
	// into the reducer's group buffer: valid only during the call, the
	// call's to reorder in place, never to be retained — the buffer is
	// reused for the next key, so copy what must outlive the call.
	Reduce(key K, values []V) R
	// PairBytes reports the serialized size of one key/value pair.
	PairBytes(k K, v V) int64
	// ResultBytes reports the serialized size of one reduce output.
	ResultBytes(r R) int64
}

// Options configures an execution.
type Options struct {
	// StatePerVertexBytes charges extra Map-side disk reads for
	// application state stored alongside the partition (e.g. PageRank
	// ranks).
	StatePerVertexBytes int64
}

// computePerPair is CPU seconds per emitted pair (Map) and per folded value
// (Reduce). It matches propagation's per-edge cost: the simulated system is
// I/O-bound like the paper's deployment.
const computePerPair = 20e-9

// Combiner is an optional Program extension: when implemented, the values
// a map task emits for the same key are folded map-side before the shuffle
// (Google MapReduce's combiner [5]), shrinking the map output and the
// network traffic for associative reductions. values is a window under
// Reduce's contract: the call's to reorder, not to retain.
type Combiner[K Key, V any] interface {
	CombineValues(key K, values []V) V
}

// hashKey is the shuffle's hash partitioner.
func hashKey[K Key](k K, mod int) int {
	h := uint64(k) * 0x9E3779B97F4A7C15
	return int(h >> 33 % uint64(mod))
}

// account is the shuffle's exact accounting, the input of the engine job.
type account struct {
	pairsEmitted   []int64   // [mapTask] pairs Map emitted, before any combiner
	shuffleBytes   [][]int64 // [mapTask][reducer] bytes
	reduceValues   []int64   // [reducer] values folded
	reduceOutBytes []int64   // [reducer] result bytes
}

// scratch is the working memory of one running map task or reducer: the
// builder its pairs are collected in and the log they are grouped into.
// Each is overwritten before it is read, whichever task had it last.
type scratch[K Key, V any] struct {
	b     exchange.Builder[K, V]
	group exchange.Log[K, V]
}

// reduced is one key's reduce result.
type reduced[K Key, R any] struct {
	key K
	res R
}

// execute runs the semantic map and reduce phases, both on the pool, with no
// pass over the pairs in between: every map task lays its pairs out in its
// own log, owned by reducer (hashKey), and every reducer gathers its run from
// the map logs in map-task index order — the order a serial shuffle delivers
// in, so a key's values reach Reduce in the same sequence for every worker
// count. The tasks draw their buffers from a free list of one per worker.
func execute[K Key, V any, R any](pool *engine.Pool, pg *storage.PartitionedGraph, prog Program[K, V, R]) (map[K]R, account) {
	p := pg.Part.P
	reducers := p
	acct := account{
		pairsEmitted:   make([]int64, p),
		shuffleBytes:   make([][]int64, p),
		reduceValues:   make([]int64, reducers),
		reduceOutBytes: make([]int64, reducers),
	}
	free := make(chan *scratch[K, V], pool.Workers())
	for range cap(free) {
		free <- new(scratch[K, V])
	}
	// The map logs, and the offsets and byte counts of every map task in
	// one allocation each.
	outs := make([]exchange.Log[K, V], p)
	offs, bytes := make([]int32, p*(reducers+1)), make([]int64, p*reducers)
	for i := range outs {
		outs[i].Off = offs[i*(reducers+1) : (i+1)*(reducers+1) : (i+1)*(reducers+1)]
		acct.shuffleBytes[i] = bytes[i*reducers : (i+1)*reducers : (i+1)*reducers]
	}
	combiner, hasCombiner := prog.(Combiner[K, V])
	pool.ForEach(p, func(i int) {
		sc := <-free
		pi := pg.Parts[i]
		sc.b.Reset(len(pi.Vertices)) // room for a pair per vertex, to grow from
		prog.Map(pi, pg.G, sc.b.Add)
		acct.pairsEmitted[i] = int64(sc.b.Len())
		if hasCombiner {
			// Fold this task's pairs per key map-side; only the folded pairs
			// are collected again, accounted and shuffled.
			sc.b.Build(&sc.group, true, 1, nil)
			start := int32(0)
			for _, g := range sc.group.Groups {
				v := sc.group.Vals[start]
				if g.End-start > 1 {
					v = combiner.CombineValues(g.Key, sc.group.Vals[start:g.End:g.End])
				}
				sc.b.Add(g.Key, v)
				start = g.End
			}
		}
		// Each pair goes to its reducer's run, charged to row i of the byte
		// table on the way.
		sent := acct.shuffleBytes[i]
		sc.b.Build(&outs[i], false, reducers, func(k K, v V) int {
			red := hashKey(k, reducers)
			sent[red] += prog.PairBytes(k, v)
			return red
		})
		free <- sc
	})

	perRed := make([][]reduced[K, R], reducers)
	pool.ForEach(reducers, func(red int) {
		sc := <-free
		for i := range outs {
			sc.b.Gather(&outs[i], red)
		}
		sc.b.Build(&sc.group, true, 1, nil)
		groups, vals := sc.group.Groups, sc.group.Vals
		local := make([]reduced[K, R], len(groups))
		start, outBytes := int32(0), int64(0)
		for j, g := range groups {
			res := prog.Reduce(g.Key, vals[start:g.End:g.End])
			local[j] = reduced[K, R]{key: g.Key, res: res}
			outBytes += prog.ResultBytes(res)
			start = g.End
		}
		perRed[red], acct.reduceValues[red], acct.reduceOutBytes[red] = local, int64(len(vals)), outBytes
		free <- sc
	})
	keys := 0
	for _, local := range perRed {
		keys += len(local)
	}
	results := make(map[K]R, keys)
	for _, local := range perRed {
		for _, e := range local {
			results[e.key] = e.res
		}
	}
	return results, acct
}

// Run executes the MapReduce job on the simulated cluster and returns the
// reduce results keyed by K. The number of reduce tasks equals the number
// of partitions; reducers are spread round-robin over machines, reflecting
// hash shuffling's obliviousness to data placement.
func Run[K Key, V any, R any](r *engine.Runner, pg *storage.PartitionedGraph, pl *partition.Placement, prog Program[K, V, R], opt Options) (map[K]R, engine.Metrics, error) {
	if pl.NumPartitions() != pg.Part.P {
		return nil, engine.Metrics{}, fmt.Errorf("mapreduce: placement covers %d partitions, graph has %d", pl.NumPartitions(), pg.Part.P)
	}
	p := pg.Part.P
	numMachines := r.NumMachines()
	reducers := p
	results, acct := execute(r.Pool(), pg, prog)

	// Build the two-stage engine job.
	mapTasks := make([]*engine.Task, p)
	for i, pi := range pg.Parts {
		var outs []engine.Output
		var mapOutBytes int64 // materialized map output
		for red, b := range acct.shuffleBytes[i] {
			mapOutBytes += b
			if b > 0 {
				outs = append(outs, engine.Output{DstTask: red, Bytes: b})
			}
		}
		mapTasks[i] = &engine.Task{
			Name:     fmt.Sprintf("map-p%d", i),
			Kind:     engine.KindTransfer,
			Part:     partition.PartID(i),
			Machine:  pl.MachineOf[i],
			Compute:  computePerPair * float64(pi.OutEdges()+acct.pairsEmitted[i]),
			DiskRead: pi.Bytes + opt.StatePerVertexBytes*int64(len(pi.Vertices)),
			// Map output is spilled, then rewritten sorted by reducer —
			// the Google-style map-side sort pass [5].
			DiskWrite: 2 * mapOutBytes,
			Outputs:   outs,
		}
	}
	reduceTasks := make([]*engine.Task, reducers)
	for red := 0; red < reducers; red++ {
		var received int64
		for i := 0; i < p; i++ {
			received += acct.shuffleBytes[i][red]
		}
		reduceTasks[red] = &engine.Task{
			Name:    fmt.Sprintf("reduce-%d", red),
			Kind:    engine.KindCombine,
			Part:    engine.NoPart,
			Machine: reducerMachine(red, numMachines),
			Compute: computePerPair * float64(acct.reduceValues[red]),
			// Shuffled input is materialized on arrival, merge-sorted
			// (read + read again for the reduce scan), and the results
			// written out.
			DiskRead:  2 * received,
			DiskWrite: received + acct.reduceOutBytes[red],
		}
	}
	// Reduce outputs land on the distributed file system with 3-way
	// replication (GFS [6]): each reducer ships two remote copies, which
	// the receiving machines write to disk. Iterative MapReduce pays this
	// every iteration; Surfer's propagation writes partition-private
	// state locally and recovers by re-execution instead.
	sinkTasks := make([]*engine.Task, numMachines)
	sinkWrite := make([]int64, numMachines)
	for red := 0; red < reducers; red++ {
		m := int(reducerMachine(red, numMachines))
		for _, offset := range []int{1, 2} {
			target := (m + offset) % numMachines
			sinkWrite[target] += acct.reduceOutBytes[red]
			reduceTasks[red].Outputs = append(reduceTasks[red].Outputs,
				engine.Output{DstTask: target, Bytes: acct.reduceOutBytes[red]})
		}
	}
	for m := 0; m < numMachines; m++ {
		sinkTasks[m] = &engine.Task{
			Name:      fmt.Sprintf("replica-sink-%d", m),
			Kind:      engine.KindCombine,
			Part:      engine.NoPart,
			Machine:   cluster.MachineID(m),
			DiskWrite: sinkWrite[m],
		}
	}
	stages := []*engine.Stage{
		{Name: "map", Tasks: mapTasks},
		{Name: "reduce", Tasks: reduceTasks},
		{Name: "replicate", Tasks: sinkTasks},
	}
	if opt.StatePerVertexBytes > 0 {
		// Iterative MapReduce reads its per-vertex state from the DFS,
		// where the previous iteration's reduce output is hash-scattered
		// across machines rather than aligned with graph partitions: each
		// map task fetches its state over the network from a remote DFS
		// replica before it can scan its partition.
		fetchTasks := make([]*engine.Task, p)
		for i, pi := range pg.Parts {
			bytes := opt.StatePerVertexBytes * int64(len(pi.Vertices))
			src := cluster.MachineID((int(pl.MachineOf[i]) + 1 + i%max(numMachines-1, 1)) % numMachines)
			fetchTasks[i] = &engine.Task{
				Name:     fmt.Sprintf("dfs-read-p%d", i),
				Kind:     engine.KindTransfer,
				Part:     partition.PartID(i),
				Machine:  src,
				DiskRead: bytes,
				Outputs:  []engine.Output{{DstTask: i, Bytes: bytes}},
			}
		}
		stages = append([]*engine.Stage{{Name: "dfs-read", Tasks: fetchTasks}}, stages...)
	}
	job := &engine.Job{Name: "mapreduce", Stages: stages}
	m, err := r.Run(job)
	if err != nil {
		return nil, engine.Metrics{}, err
	}
	return results, m, nil
}

// reducerMachine spreads reducers over machines round-robin — the hash
// shuffle has no notion of data placement.
func reducerMachine(red, numMachines int) cluster.MachineID {
	return cluster.MachineID(red % numMachines)
}
