package propagation

import (
	"fmt"
	"math/bits"
	"slices"

	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/partition"
	"repro/internal/storage"
)

// State carries the per-vertex values between iterations.
type State[V any] struct {
	// Values[v] is real vertex v's current value.
	Values []V
	// Virtual holds values of virtual vertices that have received data.
	Virtual map[graph.VertexID]V
	// sc is the reusable iteration workspace, handed from each state to its
	// successor so steady-state iterations allocate nothing per message. It
	// is created lazily, so states built by hand (tests, checkpoint restore)
	// work unchanged.
	sc *scratch[V]
}

// scratch is the pooled working memory of the propagation fast path. Every
// buffer has one owner — a partition in its role as source (the emission
// log, its grouping buffers, the log bucketed by destination partition) or
// as destination (the slab its vertices' bags are windows into, its virtual
// bags) — so no phase needs a lock or a serial pass. Buffers keep their
// capacity across iterations; everything is re-sliced to zero length before
// reuse, never reallocated while sizes are steady.
type scratch[V any] struct {
	// pg is the partitioned graph the slots below were laid out for.
	pg    *storage.PartitionedGraph
	parts []partScratch[V]
	// slot[v] is real vertex v's index into bags and counts. Slots are
	// grouped by partition — partition q's vertices, in id order, take
	// base[q]..base[q+1] — so the bag headers and counters a partition
	// writes are one dense run that no other partition's share a cache line
	// with, wherever its vertices fall in id space.
	slot []int32
	base []int32
	// bags[slot[v]] is v's received-value bag, a zero-copy window into its
	// partition's slab sized by the gather's counting pass; counts is that
	// pass's workspace (all-zero outside gatherPart).
	bags   [][]V
	counts []int32
}

// partScratch is one partition's private workspace. The source-side fields
// are written by the partition's transferPart and only read afterwards; the
// destination-side fields are touched only by its gatherPart/combinePart.
type partScratch[V any] struct {
	// out is the partition's emission log.
	out []emission[V]
	// sent is out stably sorted by destination partition: the values headed
	// to partition q are sent[off[q]:off[q+1]], in log order. One flat buffer
	// and P+1 offsets (off has one more slot, the counting sort's cursor)
	// rather than P slices, so 256 partitions cost 256 buffers, not 65 536.
	sent []emission[V]
	off  []int32
	// key/gval hold emissions pending local combination: gval in emission
	// order, key packing (dst<<32 | index-into-gval) so sorting the uint64
	// keys groups by destination while preserving per-destination emission
	// order. Partition-local emission counts stay far below 2^32 at the
	// scales the 32-bit VertexID admits.
	key  []uint64
	gval []V
	// vals is the reused buffer handed to Program.Merge; programs must not
	// retain it (see Program.Merge).
	vals []V
	// raw/sorted cache the previous iteration's key sequence and its sorted
	// order. For programs whose emission pattern is value-independent (one
	// emission per edge — NR, TFL, ...), the sequence repeats every
	// iteration, so grouping costs one O(m) comparison instead of a sort.
	raw    []uint64
	sorted []uint64

	// slab backs the bags of the partition's own vertices.
	slab []V
	// virt holds the bags of the virtual vertices this partition owns
	// (lazily allocated — the common VirtualVertices=0 case never touches
	// it); vdst/vout are their sorted ids and combined values.
	virt map[graph.VertexID][]V
	vdst []graph.VertexID
	vout []V
	// agg collects the cross-pod values tree aggregation claimed on their
	// way to this partition (see tree.go).
	agg []aggValue[V]
}

func newScratch[V any](pg *storage.PartitionedGraph) *scratch[V] {
	n, p := pg.G.NumVertices(), pg.Part.P
	sc := &scratch[V]{
		pg:     pg,
		parts:  make([]partScratch[V], p),
		slot:   make([]int32, n),
		base:   make([]int32, p+1),
		bags:   make([][]V, n),
		counts: make([]int32, n),
	}
	offs := make([]int32, p*(p+2))
	for q, pi := range pg.Parts {
		sc.parts[q].off = offs[q*(p+2) : (q+1)*(p+2)]
		sc.base[q+1] = sc.base[q] + int32(len(pi.Vertices))
		for i, v := range pi.Vertices {
			sc.slot[v] = sc.base[q] + int32(i)
		}
	}
	return sc
}

// partBags returns the bags of partition q's vertices, in the order of its
// vertex list.
func (sc *scratch[V]) partBags(q int) [][]V { return sc.bags[sc.base[q]:sc.base[q+1]] }

// sized returns s at length n, reallocating only when its capacity is short.
// The contents are unspecified: callers overwrite every element they read.
func sized[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// bucket returns the logged values headed to partition q, in log order.
func (ps *partScratch[V]) bucket(q int) []emission[V] {
	return ps.sent[ps.off[q]:ps.off[q+1]]
}

// NewState initializes the state with Program.Init.
func NewState[V any](pg *storage.PartitionedGraph, prog Program[V]) *State[V] {
	st := &State[V]{
		Values:  make([]V, pg.G.NumVertices()),
		Virtual: make(map[graph.VertexID]V),
	}
	for v := range st.Values {
		st.Values[v] = prog.Init(graph.VertexID(v))
	}
	return st
}

// VirtualPartition assigns virtual vertex ids to partitions round-robin, so
// virtual combine work spreads across machines (§3.2).
func VirtualPartition(v graph.VertexID, p int) partition.PartID {
	return partition.PartID(int(v) % p)
}

// Iterate runs one propagation iteration (Algorithm 5) on the simulated
// cluster: the Transfer stage applies Program.Transfer to every out-edge of
// every partition in parallel, the Combine stage folds the received bags.
// It returns the next state and the iteration's metrics. The runner's clock
// and cumulative metrics advance.
func Iterate[V any](r *engine.Runner, pg *storage.PartitionedGraph, pl *partition.Placement, prog Program[V], st *State[V], opt Options) (*State[V], engine.Metrics, error) {
	return iterateNamed(r, pg, pl, prog, st, opt, "", nil)
}

// iterateNamed is Iterate with a job label for trace output and, when skip is
// non-nil, the vertices whose state I/O cascaded propagation suppresses.
func iterateNamed[V any](r *engine.Runner, pg *storage.PartitionedGraph, pl *partition.Placement, prog Program[V], st *State[V], opt Options, jobName string, skip []bool) (*State[V], engine.Metrics, error) {
	next, job, err := planIteration(r.Pool(), pg, pl, prog, st, opt, jobName, skip)
	if err != nil {
		return nil, engine.Metrics{}, err
	}
	m, err := r.Run(job)
	if err != nil {
		return nil, engine.Metrics{}, err
	}
	return next, m, nil
}

// planIteration computes one iteration's semantics — the next state and the
// engine job carrying its exact I/O accounting — without running the job.
// The semantic computation never reads the simulated clock, so the plan is
// independent of when (or against what contention) the job later executes.
func planIteration[V any](pool *engine.Pool, pg *storage.PartitionedGraph, pl *partition.Placement, prog Program[V], st *State[V], opt Options, jobName string, skip []bool) (*State[V], *engine.Job, error) {
	ex, err := newExecution(pool, pg, pl, prog, st, opt, jobName)
	if err != nil {
		return nil, nil, err
	}
	ex.skipStateIO = skip
	next := ex.run()
	return next, ex.buildJob(), nil
}

// PlanIterations runs iters iterations of the propagation semantics only,
// returning the per-iteration engine jobs (named "<prefix>-iter-001"...)
// without executing them on a runner, plus the final state. A multi-tenant
// job service replays these plans on a shared cluster: because planning is a
// pure function of graph, program and placement, the plan — and therefore
// the job's results — is identical however the jobs are later scheduled.
// pool parallelizes the per-partition compute bodies (nil = serial); results
// are bit-identical for every worker count.
func PlanIterations[V any](pool *engine.Pool, pg *storage.PartitionedGraph, pl *partition.Placement, prog Program[V], st *State[V], opt Options, iters int, prefix string) ([]*engine.Job, *State[V], error) {
	jobs := make([]*engine.Job, 0, iters)
	for i := 0; i < iters; i++ {
		next, job, err := planIteration(pool, pg, pl, prog, st, opt, iterName(prefix, i), nil)
		if err != nil {
			return nil, nil, err
		}
		jobs = append(jobs, job)
		st = next
	}
	return jobs, st, nil
}

// execution holds the per-iteration working state: semantic bags plus the
// exact I/O accounting that becomes the engine job.
type execution[V any] struct {
	pg   *storage.PartitionedGraph
	pl   *partition.Placement
	prog Program[V]
	st   *State[V]
	opt  Options
	// pool runs the per-partition bodies on host cores; nil means serial.
	// Determinism: an iteration is two pool phases and nothing in between.
	// transferPart(p) writes only partition p's log; gatherPart(q) and
	// combinePart(q) read every log but write only what partition q owns —
	// its vertices' bags, values and virtual vertices, its row or column of
	// every accounting table — and visit the source partitions in index
	// order. Each bag therefore fills in the order the serial executor
	// produced, whichever worker runs whichever partition, so results are
	// bit-identical for every worker count.
	pool *engine.Pool

	n     int
	assoc bool
	// sc is the pooled workspace shared along the state chain.
	sc *scratch[V]

	// Per-partition accounting. Every slot is an integer written by exactly
	// one partition, so no sum depends on an order.
	localBytes    []int64 // intermediates materialized inside the partition
	remoteBytes   []int64 // flat P×P [src*P+dst] network bytes; column dst is written by dst
	receivedBytes []int64 // sum of inbound remote bytes per partition
	combineCount  []int64 // values folded in each partition's combine
	stateRead     []int64 // prior state bytes read by transfer tasks
	stateWrite    []int64 // next state bytes written by combine tasks
	// SkipStateIO suppresses state read/write accounting for chosen
	// vertices (used by cascaded propagation, §5.2). Nil means none.
	skipStateIO []bool
	// tree, when set, routes cross-pod values through the Aggregate stage
	// (see tree.go). Nil on the plain two-stage path.
	tree *treeAgg
	// jobName labels the engine job (and thus every trace event of the
	// iteration); multi-iteration drivers set per-iteration labels so a
	// traced run shows "propagation-iter-002" etc. as separate spans.
	jobName string
}

func newExecution[V any](pool *engine.Pool, pg *storage.PartitionedGraph, pl *partition.Placement, prog Program[V], st *State[V], opt Options, jobName string) (*execution[V], error) {
	p := pg.Part.P
	n := pg.G.NumVertices()
	if len(st.Values) != n {
		return nil, fmt.Errorf("propagation: state has %d values, graph has %d vertices", len(st.Values), n)
	}
	if pl.NumPartitions() != p {
		return nil, fmt.Errorf("propagation: placement covers %d partitions, graph has %d", pl.NumPartitions(), p)
	}
	if st.sc == nil || st.sc.pg != pg {
		st.sc = newScratch[V](pg)
	}
	// One allocation, carved into the six accounting tables.
	tables := make([]int64, p*p+5*p)
	carve := func(n int) []int64 {
		t := tables[:n:n]
		tables = tables[n:]
		return t
	}
	return &execution[V]{
		pg: pg, pl: pl, prog: prog, st: st, opt: opt,
		pool:          pool,
		jobName:       jobName,
		n:             n,
		assoc:         prog.Associative(),
		sc:            st.sc,
		remoteBytes:   carve(p * p),
		localBytes:    carve(p),
		receivedBytes: carve(p),
		combineCount:  carve(p),
		stateRead:     carve(p),
		stateWrite:    carve(p),
	}, nil
}

// partOf resolves a destination (real or virtual) to its partition.
func (ex *execution[V]) partOf(dst graph.VertexID) partition.PartID {
	if int(dst) < ex.n {
		return ex.pg.Part.Assign[dst]
	}
	return VirtualPartition(dst, ex.pg.Part.P)
}

// emitKind classifies a recorded emission for the destination's accounting.
type emitKind uint32

const (
	// emitFused: same-partition destination with all-local inputs under
	// local propagation — consumed in memory, no I/O charged.
	emitFused emitKind = iota
	// emitLocal: same-partition destination materialized to local disk.
	emitLocal
	// emitRemote: cross-partition destination.
	emitRemote
)

// emission is one entry of a partition's transfer output log: the exact
// sequence of values the serial executor would have delivered, with the
// destination partition and the classification its owner needs to charge the
// I/O. The two share a word (part<<2 | kind), which keeps a scalar-valued
// entry at 16 bytes.
type emission[V any] struct {
	val  V
	dst  graph.VertexID
	part uint32
}

func pack(q partition.PartID, k emitKind) uint32 { return uint32(q)<<2 | uint32(k) }

func (e *emission[V]) kind() emitKind { return emitKind(e.part & 3) }

// run computes the iteration: the Transfer stage semantics for every
// partition, then each partition's gather and Combine, both spread over the
// pool. It returns the next state; the accounting stays on ex for the job.
func (ex *execution[V]) run() *State[V] {
	np := len(ex.pg.Parts)
	next := &State[V]{Values: make([]V, ex.n), sc: ex.sc}
	ex.pool.ForEach(np, ex.transferPart)
	ex.pool.ForEach(np, func(q int) {
		// Combine runs straight after the gather, while the partition's
		// slab and bag headers are still in cache.
		ex.gatherPart(q)
		ex.combinePart(q, next)
	})
	ex.publishVirtual(next)
	return next
}

// transferPart runs one partition's Transfer calls and local combination,
// then buckets its log by destination partition. It writes only
// partition-indexed slots (stateRead[p], its partScratch), so concurrent
// invocations for different partitions never share state.
func (ex *execution[V]) transferPart(p int) {
	pi := ex.pg.Parts[p]
	ps := &ex.sc.parts[p]
	ps.out = ps.out[:0]
	// grouping: pending emissions are held back for local combination —
	// remote-bound groups shrink the transfer, same-partition groups
	// headed to non-fusable vertices shrink the materialized intermediates
	// (one merged value per destination instead of one per edge).
	grouping := ex.assoc && ex.opt.LocalCombination
	if grouping {
		ps.key = ps.key[:0]
		ps.gval = ps.gval[:0]
	}
	vt, hasVT := any(ex.prog).(VertexTransferrer[V])
	emit := func(d graph.VertexID, v V) {
		ex.record(pi, ps, grouping, d, v)
	}
	// Byte totals are summed in locals and stored once: the accounting
	// tables pack neighbouring partitions into one cache line, which a store
	// per vertex or per value would bounce between the workers.
	var stateRead int64
	for _, u := range pi.Vertices {
		val := ex.st.Values[u]
		stateRead += ex.prog.Bytes(val)
		if hasVT {
			vt.TransferVertex(u, val, emit)
		}
		for _, dst := range ex.pg.G.Neighbors(u) {
			ex.prog.Transfer(u, val, dst, emit)
		}
	}
	ex.stateRead[p] = stateRead
	if grouping {
		ex.flushGroups(p, ps)
	}
	ps.bucketLog()
}

// record classifies one emitted value into the partition's emission log (or
// its local-combination group).
func (ex *execution[V]) record(pi *storage.PartInfo, ps *partScratch[V], grouping bool, dst graph.VertexID, v V) {
	if int(dst) >= ex.n+ex.opt.VirtualVertices {
		panic(fmt.Sprintf("propagation: emission to vertex %d outside real+virtual space", dst))
	}
	q := ex.partOf(dst)
	kind := emitRemote
	if q == pi.ID {
		// Same-partition emission: free when the destination's inputs are
		// entirely local (no cross in-edge) and local propagation is on;
		// otherwise materialized to local disk for the Combine stage —
		// after per-destination merging when local combination applies.
		kind = emitLocal
		if ex.opt.LocalPropagation && int(dst) < ex.n && !pi.HasCrossInEdge(dst) {
			ps.out = append(ps.out, emission[V]{val: v, dst: dst, part: pack(q, emitFused)})
			return
		}
	}
	if grouping {
		ps.key = append(ps.key, uint64(dst)<<32|uint64(len(ps.gval)))
		ps.gval = append(ps.gval, v)
		return
	}
	ps.out = append(ps.out, emission[V]{val: v, dst: dst, part: pack(q, kind)})
}

// flushGroups merges the held-back emissions (local combination) into the
// log in sorted destination order. Sorting the packed keys groups the log by
// destination (ascending) while keeping each destination's values in
// emission order — exactly the grouping the map-based implementation
// produced, without a hash map on the per-emission path.
func (ex *execution[V]) flushGroups(p int, ps *partScratch[V]) {
	if !slices.Equal(ps.key, ps.raw) {
		ps.raw = append(ps.raw[:0], ps.key...)
		ps.sortKeys(bits.Len(uint(ex.n + ex.opt.VirtualVertices)))
	}
	keys := ps.sorted
	for i := 0; i < len(keys); {
		d := graph.VertexID(keys[i] >> 32)
		ps.vals = ps.vals[:0]
		j := i
		for ; j < len(keys) && graph.VertexID(keys[j]>>32) == d; j++ {
			ps.vals = append(ps.vals, ps.gval[uint32(keys[j])])
		}
		i = j
		merged := ps.vals[0]
		if len(ps.vals) > 1 {
			merged = ex.prog.Merge(d, ps.vals)
		}
		q := ex.partOf(d)
		kind := emitRemote
		if int(q) == p {
			kind = emitLocal
		}
		ps.out = append(ps.out, emission[V]{val: merged, dst: d, part: pack(q, kind)})
	}
}

// radixBits is the digit width of sortKeys: 2 048 counters stay in L1 and
// two passes cover 4M vertices.
const radixBits = 11

// sortKeys leaves the keys of ps.key in ps.sorted, ordered by destination
// with ties in emission order. The index half of a key grows along the log,
// so the keys arrive sorted by it and a stable LSD radix sort of the
// destination half alone — dstBits wide — is a full sort of the packed word.
// key and sorted are the two buffers the passes alternate between.
func (ps *partScratch[V]) sortKeys(dstBits int) {
	src := ps.key
	dst := sized(ps.sorted, len(src))
	for shift := 32; shift < 32+dstBits; shift += radixBits {
		var start [1 << radixBits]int32
		for _, k := range src {
			start[k>>shift&(1<<radixBits-1)]++
		}
		sum := int32(0)
		for d, c := range start {
			start[d] = sum
			sum += c
		}
		for _, k := range src {
			d := k >> shift & (1<<radixBits - 1)
			dst[start[d]] = k
			start[d]++
		}
		src, dst = dst, src
	}
	ps.sorted, ps.key = src, dst
}

// bucketLog stably counting-sorts the finished log by destination partition
// into sent, so each destination finds its values in one contiguous run.
func (ps *partScratch[V]) bucketLog() {
	// Counting two slots up and scattering through the slot between leaves
	// off[q] at the start of bucket q once every cursor has run to its end.
	off := ps.off
	clear(off)
	for i := range ps.out {
		off[ps.out[i].part>>2+2]++
	}
	for q := 2; q < len(off); q++ {
		off[q] += off[q-1]
	}
	ps.sent = sized(ps.sent, len(ps.out))
	for i := range ps.out {
		c := &off[ps.out[i].part>>2+1]
		ps.sent[*c] = ps.out[i]
		*c++
	}
}

// gatherPart delivers to partition q everything the transfer phase logged
// for it: it walks the source partitions in index order and each bucket in
// log order — the sequence the serial executor delivered in, so
// order-sensitive combines and float summations stay bit-identical — filling
// the bags of q's vertices and charging the I/O of each value. It writes
// only what q owns.
//
// A counting pass first sizes every bag as a window into the partition's
// slab, so delivery appends never allocate. The counts are an upper bound
// (tree aggregation claims cross-pod values), which also leaves room for the
// per-(pod, destination) merged values it appends after the walk.
func (ex *execution[V]) gatherPart(q int) {
	sc := ex.sc
	ps := &sc.parts[q]
	total := 0
	for p := range sc.parts {
		b := sc.parts[p].bucket(q)
		for i := range b {
			if d := b[i].dst; int(d) < ex.n {
				sc.counts[sc.slot[d]]++
				total++
			}
		}
	}
	slab := sized(ps.slab, total)
	ps.slab = slab
	off := 0
	bags, counts := sc.partBags(q), sc.counts[sc.base[q]:sc.base[q+1]]
	for i, c := range counts {
		bags[i] = slab[off : off : off+int(c)]
		off += int(c)
		counts[i] = 0
	}
	clear(ps.virt)
	ps.agg = ps.agg[:0]
	np := len(sc.parts)
	var local int64
	for p := range sc.parts {
		b := sc.parts[p].bucket(q)
		var remote, toAgg int64
		crossPod := ex.tree != nil && ex.tree.pod[p] != ex.tree.pod[q]
		for i := range b {
			e := &b[i]
			switch e.kind() {
			case emitLocal:
				local += ex.prog.Bytes(e.val)
			case emitRemote:
				if crossPod {
					ps.agg = append(ps.agg, aggValue[V]{pod: ex.tree.pod[p], dst: e.dst, val: e.val})
					toAgg += ex.prog.Bytes(e.val)
					continue
				}
				remote += ex.prog.Bytes(e.val)
			}
			ex.appendBag(ps, e.dst, e.val)
		}
		ex.remoteBytes[p*np+q] = remote
		if crossPod {
			ex.tree.toAgg[p*np+q] = toAgg
		}
	}
	ex.localBytes[q] = local
	if ex.tree != nil {
		ex.aggregatePart(q)
	}
}

// appendBag adds v to dst's bag; ps is the scratch of the partition owning
// dst.
func (ex *execution[V]) appendBag(ps *partScratch[V], dst graph.VertexID, v V) {
	if int(dst) < ex.n {
		bag := &ex.sc.bags[ex.sc.slot[dst]]
		*bag = append(*bag, v)
		return
	}
	if ps.virt == nil {
		ps.virt = make(map[graph.VertexID][]V)
	}
	ps.virt[dst] = append(ps.virt[dst], v)
}

// combinePart runs partition q's Combine calls into next and charges the
// combine-side accounting: its real vertices, then the virtual vertices it
// owns, in id order and from a zero previous value on first receipt. Virtual
// results wait in the partition's scratch for publishVirtual — next.Virtual
// is a map, and maps are not written from the pool.
func (ex *execution[V]) combinePart(q int, next *State[V]) {
	var count, stateWrite, skippedRead int64
	bags := ex.sc.partBags(q)
	for i, v := range ex.pg.Parts[q].Vertices {
		bag := bags[i]
		next.Values[v] = ex.prog.Combine(v, ex.st.Values[v], bag)
		count += int64(len(bag)) + 1
		if ex.skipStateIO == nil || !ex.skipStateIO[v] {
			stateWrite += ex.prog.Bytes(next.Values[v])
		} else {
			// Cascaded vertices skip both the prior-state read and
			// the next-state write for this iteration.
			skippedRead += ex.prog.Bytes(ex.st.Values[v])
		}
	}
	ps := &ex.sc.parts[q]
	ps.vdst, ps.vout = ps.vdst[:0], ps.vout[:0]
	for d := range ps.virt {
		ps.vdst = append(ps.vdst, d)
	}
	slices.Sort(ps.vdst)
	for _, d := range ps.vdst {
		bag := ps.virt[d]
		val := ex.prog.Combine(d, ex.st.Virtual[d], bag)
		ps.vout = append(ps.vout, val)
		count += int64(len(bag)) + 1
		stateWrite += ex.prog.Bytes(val)
	}
	ex.combineCount[q] = count
	ex.stateWrite[q] = stateWrite
	ex.stateRead[q] -= skippedRead
}

// publishVirtual collects the partitions' virtual results into next.Virtual
// and carries forward the virtual values nothing reached this iteration.
func (ex *execution[V]) publishVirtual(next *State[V]) {
	total := 0
	for q := range ex.sc.parts {
		total += len(ex.sc.parts[q].vdst)
	}
	next.Virtual = make(map[graph.VertexID]V, total)
	for q := range ex.sc.parts {
		ps := &ex.sc.parts[q]
		for i, d := range ps.vdst {
			next.Virtual[d] = ps.vout[i]
		}
	}
	for d, v := range ex.st.Virtual {
		if _, ok := next.Virtual[d]; !ok {
			next.Virtual[d] = v
		}
	}
}

// buildJob converts the accounting into a two-stage engine job.
func (ex *execution[V]) buildJob() *engine.Job {
	p := ex.pg.Part.P
	costs := ex.opt.costs()
	transfer := make([]*engine.Task, p)
	combine := make([]*engine.Task, p)
	for i := 0; i < p; i++ {
		for q := 0; q < p; q++ {
			ex.receivedBytes[q] += ex.remoteBytes[i*p+q]
		}
	}
	for i := 0; i < p; i++ {
		pi := ex.pg.Parts[i]
		m := ex.pl.MachineOf[i]
		var edges int64
		for _, v := range pi.Vertices {
			edges += int64(ex.pg.G.OutDegree(v))
		}
		var outs []engine.Output
		for q := 0; q < p; q++ {
			if b := ex.remoteBytes[i*p+q]; b > 0 {
				outs = append(outs, engine.Output{DstTask: q, Bytes: b})
			}
		}
		transfer[i] = &engine.Task{
			Name:      fmt.Sprintf("transfer-p%d", i),
			Kind:      engine.KindTransfer,
			Part:      partition.PartID(i),
			Machine:   m,
			Compute:   costs.ComputePerEdge * float64(edges),
			DiskRead:  pi.Bytes + ex.stateRead[i],
			DiskWrite: ex.localBytes[i],
			Outputs:   outs,
		}
		combine[i] = &engine.Task{
			Name:    fmt.Sprintf("combine-p%d", i),
			Kind:    engine.KindCombine,
			Part:    partition.PartID(i),
			Machine: m,
			Compute: costs.ComputePerValue * float64(ex.combineCount[i]),
			// The combine input is the locally materialized intermediates
			// plus the remote arrivals staged on local disk ("all the
			// intermediate results required for the Combine stage is
			// stored on the same machine", §5.1).
			DiskRead:  ex.localBytes[i] + ex.receivedBytes[i],
			DiskWrite: ex.stateWrite[i],
		}
	}
	name := ex.jobName
	if name == "" {
		name = "propagation-iteration"
	}
	return &engine.Job{
		Name:   name,
		Stages: []*engine.Stage{{Name: "transfer", Tasks: transfer}, {Name: "combine", Tasks: combine}},
	}
}
