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
	"slices"

	"repro/internal/cluster"
	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/partition"
	"repro/internal/storage"
)

// Key constrains MapReduce keys to integer-like types so the shuffle can
// hash them deterministically.
type Key interface {
	~int | ~int32 | ~int64 | ~uint32 | ~uint64
}

// Program is the user-defined logic of a MapReduce application on the
// partitioned graph.
type Program[K Key, V any, R any] interface {
	// Map processes one partition and emits key/value pairs. The graph
	// gives access to the adjacency lists of the partition's vertices.
	Map(pi *storage.PartInfo, g *graph.Graph, emit func(K, V))
	// Reduce folds all values of one key into a result.
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
	// ComputePerPair is CPU seconds per emitted pair (Map) and per
	// folded value (Reduce). Zero selects a default matching the
	// propagation cost constants.
	ComputePerPair float64
	// JobName labels the engine job in trace output; empty means
	// "mapreduce".
	JobName string
}

func (o Options) computePerPair() float64 {
	if o.ComputePerPair == 0 {
		// Matches propagation.DefaultCostParams: the simulated system is
		// I/O-bound like the paper's deployment.
		return 20e-9
	}
	return o.ComputePerPair
}

// Combiner is an optional Program extension: when implemented, the values
// a map task emits for the same key are folded map-side before the shuffle
// (Google MapReduce's combiner [5]), shrinking the map output and the
// network traffic for associative reductions.
type Combiner[K Key, V any] interface {
	CombineValues(key K, values []V) V
}

// hashKey is the shuffle's hash partitioner.
func hashKey[K Key](k K, mod int) int {
	h := uint64(k) * 0x9E3779B97F4A7C15
	return int(h>>33) % mod
}

// shuffled is one entry of a map task's output log: the pair plus its
// destination reducer. Map tasks run in parallel and each fills only its
// own log; the shuffle then replays the logs in map-task index order, so
// every reducer sees its values in the exact sequence a serial run
// produces.
type shuffled[K Key, V any] struct {
	key K
	val V
	red int
}

// kv is one key/value pair of a grouping log.
type kv[K Key, V any] struct {
	key K
	val V
}

// groupSorted sorts an index permutation of the log stably by key (ties
// break on log position, which makes the unstable sort stable) and calls fn
// once per distinct key, ascending, with that key's values in log order.
// vals is a reusable gather buffer; fn must not retain it. This replaces
// per-entry hash-map grouping on the shuffle's hot path: one index sort
// groups the whole log without hashing, and without moving the (possibly
// wide) values during sorting.
func groupSorted[K Key, V any](log []kv[K, V], idx []int32, vals []V, fn func(k K, vals []V)) {
	idx = idx[:0]
	for j := range log {
		idx = append(idx, int32(j))
	}
	slices.SortFunc(idx, func(a, b int32) int {
		ka, kb := log[a].key, log[b].key
		switch {
		case ka < kb:
			return -1
		case kb < ka:
			return 1
		default:
			return int(a - b)
		}
	})
	for s := 0; s < len(idx); {
		k := log[idx[s]].key
		vals = vals[:0]
		e := s
		for ; e < len(idx) && log[idx[e]].key == k; e++ {
			vals = append(vals, log[idx[e]].val)
		}
		s = e
		fn(k, vals)
	}
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

	// Semantic map phase with exact shuffle accounting. Map bodies run in
	// parallel over the runner's pool; each task writes only its own log
	// and accounting slots (perMap[i], mapOutBytes[i], ...).
	perMap := make([][]shuffled[K, V], p)
	mapOutBytes := make([]int64, p)    // materialized map output per partition
	shuffleBytes := make([][]int64, p) // [mapTask][reducer] bytes
	pairsEmitted := make([]int64, p)
	for i := range shuffleBytes {
		shuffleBytes[i] = make([]int64, reducers)
	}
	combiner, hasCombiner := prog.(Combiner[K, V])
	pool := r.Pool()
	pool.ForEach(p, func(i int) {
		pi := pg.Parts[i]
		var out []shuffled[K, V]
		if hasCombiner {
			// Collect this map task's pairs, fold per key map-side,
			// then account and shuffle only the folded pairs.
			var pairs []kv[K, V]
			prog.Map(pi, pg.G, func(k K, v V) {
				pairs = append(pairs, kv[K, V]{key: k, val: v})
				pairsEmitted[i]++
			})
			groupSorted(pairs, nil, nil, func(k K, vals []V) {
				folded := vals[0]
				if len(vals) > 1 {
					folded = combiner.CombineValues(k, vals)
				}
				red := hashKey(k, reducers)
				b := prog.PairBytes(k, folded)
				mapOutBytes[i] += b
				shuffleBytes[i][red] += b
				out = append(out, shuffled[K, V]{key: k, val: folded, red: red})
			})
		} else {
			prog.Map(pi, pg.G, func(k K, v V) {
				red := hashKey(k, reducers)
				b := prog.PairBytes(k, v)
				mapOutBytes[i] += b
				shuffleBytes[i][red] += b
				pairsEmitted[i]++
				out = append(out, shuffled[K, V]{key: k, val: v, red: red})
			})
		}
		perMap[i] = out
	})
	// Deterministic shuffle: concatenate the logs into per-reducer runs in
	// map-task index order — the serial delivery order. Each reducer's run
	// is then grouped by one index sort (stable, so a key's values keep the
	// delivery order), replacing the per-entry hash-map inserts that
	// dominated the shuffle at large pair counts.
	redSizes := make([]int, reducers)
	for i := range perMap {
		for j := range perMap[i] {
			redSizes[perMap[i][j].red]++
		}
	}
	redLogs := make([][]kv[K, V], reducers)
	for red := range redLogs {
		redLogs[red] = make([]kv[K, V], 0, redSizes[red])
	}
	for i := range perMap {
		for _, s := range perMap[i] {
			redLogs[s.red] = append(redLogs[s.red], kv[K, V]{key: s.key, val: s.val})
		}
		perMap[i] = nil
	}

	// Semantic reduce phase: reducers own disjoint (hash-partitioned) key
	// sets, so they fold in parallel into per-reducer result logs.
	type kr struct {
		key K
		res R
	}
	perRed := make([][]kr, reducers)
	reduceValues := make([]int64, reducers)
	reduceOutBytes := make([]int64, reducers)
	pool.ForEach(reducers, func(red int) {
		local := make([]kr, 0, len(redLogs[red]))
		groupSorted(redLogs[red], nil, nil, func(k K, vals []V) {
			res := prog.Reduce(k, vals)
			local = append(local, kr{key: k, res: res})
			reduceValues[red] += int64(len(vals))
			reduceOutBytes[red] += prog.ResultBytes(res)
		})
		perRed[red] = local
	})
	results := make(map[K]R)
	for _, local := range perRed {
		for _, e := range local {
			results[e.key] = e.res
		}
	}

	// Build the two-stage engine job.
	cpp := opt.computePerPair()
	mapTasks := make([]*engine.Task, p)
	for i, pi := range pg.Parts {
		var outs []engine.Output
		for red := 0; red < reducers; red++ {
			if b := shuffleBytes[i][red]; b > 0 {
				outs = append(outs, engine.Output{DstTask: red, Bytes: b})
			}
		}
		mapTasks[i] = &engine.Task{
			Name:     fmt.Sprintf("map-p%d", i),
			Kind:     engine.KindTransfer,
			Part:     partition.PartID(i),
			Machine:  pl.MachineOf[i],
			Compute:  cpp * float64(pi.OutEdges()+pairsEmitted[i]),
			DiskRead: pi.Bytes + opt.StatePerVertexBytes*int64(len(pi.Vertices)),
			// Map output is spilled, then rewritten sorted by reducer —
			// the Google-style map-side sort pass [5].
			DiskWrite: 2 * mapOutBytes[i],
			Outputs:   outs,
		}
	}
	reduceTasks := make([]*engine.Task, reducers)
	for red := 0; red < reducers; red++ {
		var received int64
		for i := 0; i < p; i++ {
			received += shuffleBytes[i][red]
		}
		reduceTasks[red] = &engine.Task{
			Name:    fmt.Sprintf("reduce-%d", red),
			Kind:    engine.KindCombine,
			Part:    engine.NoPart,
			Machine: reducerMachine(red, numMachines),
			Compute: cpp * float64(reduceValues[red]),
			// Shuffled input is materialized on arrival, merge-sorted
			// (read + read again for the reduce scan), and the results
			// written out.
			DiskRead:  2 * received,
			DiskWrite: received + reduceOutBytes[red],
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
			sinkWrite[target] += reduceOutBytes[red]
			reduceTasks[red].Outputs = append(reduceTasks[red].Outputs,
				engine.Output{DstTask: target, Bytes: reduceOutBytes[red]})
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
	jobName := opt.JobName
	if jobName == "" {
		jobName = "mapreduce"
	}
	job := &engine.Job{Name: jobName, Stages: stages}
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
