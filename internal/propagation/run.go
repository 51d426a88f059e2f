package propagation

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/engine"
	"repro/internal/exchange"
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
	// is created lazily, so states built by hand work unchanged.
	sc *scratch[V]
}

// scratch is the pooled working memory of the propagation fast path. Every
// buffer has one owner — a partition in its role as source (its emission plan
// and log) or as destination (the slab its vertices' bags are windows into,
// its virtual bags) — so no phase needs a lock or a serial pass. Buffers keep
// their capacity across iterations; everything is re-sliced before reuse,
// never reallocated while sizes are steady.
type scratch[V any] struct {
	// pg is the partitioned graph, and key the options, the plans were built
	// for: another graph means another scratch, another key drops every plan.
	pg    *storage.PartitionedGraph
	key   planKey
	parts []partScratch[V]
	// enc numbers the real vertices partition by partition (Appendix B):
	// partition q's vertices, in id order, take Range(q) of bags and counts —
	// a dense run that shares no cache line with another partition's,
	// wherever its vertices fall in id space.
	enc *partition.Encoding
	// bags[enc.ToNew(v)] is v's received-value bag, a zero-copy window into
	// its partition's slab sized by the gather's counting pass; counts is
	// that pass's workspace (all-zero outside gatherPart).
	bags   [][]V
	counts []int32
}

// planKey is what, besides the graph, a destination's classification depends
// on: a chain iterated under a second option set must not follow the first's
// plans, nor skip the range check of a virtual space that has shrunk.
type planKey struct {
	localPropagation, grouping bool
	virtualVertices            int
}

// partScratch is one partition's private workspace. The source-side fields
// are written by the partition's transferPart and read, after the barrier, by
// every destination's gatherPart; the destination-side fields are touched
// only by its own gatherPart/combinePart.
type partScratch[V any] struct {
	// The emission plan: built when the emission sequence is new, followed
	// while it repeats — as it does for every program that emits
	// independently of the values (NR, TFL, ...). slots[i] is where the i-th
	// emission landed when the plan was built: the destination it must name
	// again to follow the plan, and its value's place in log.Vals. next is
	// the emission expected next; collecting, that the sequence has left the
	// plan and waits in b to be laid out again.
	slots      []exchange.Entry[graph.VertexID]
	next       int
	collecting bool
	// log is the partition's side of the exchange: one group per destination
	// under local combination, else one per emission; owner 0 the fused
	// groups, read only by this partition's own gather, owner q+1 those
	// headed to partition q. Once the partition has flushed, a non-fused
	// group's first value is the one value it sends.
	log exchange.Log[graph.VertexID, V]
	b   exchange.Builder[graph.VertexID, V]

	// slab backs the bags of the partition's own vertices.
	slab []V
	// vb gathers what reaches the virtual vertices this partition owns, as a
	// reducer gathers its keys: vlog is one group per vertex, ids ascending,
	// its values the vertex's bag in delivery order, and vout holds the
	// groups' combined values. With VirtualVertices=0 nothing is built.
	vb   exchange.Builder[graph.VertexID, V]
	vlog exchange.Log[graph.VertexID, V]
	vout []V
	// ab gathers the cross-pod values tree aggregation claimed on their way
	// to this partition, and alog groups them by (sending pod, destination)
	// (see tree.go).
	ab   exchange.Builder[uint64, V]
	alog exchange.Log[uint64, V]
}

func newScratch[V any](pg *storage.PartitionedGraph) *scratch[V] {
	n, p := pg.G.NumVertices(), pg.Part.P
	sc := &scratch[V]{
		pg:     pg,
		parts:  make([]partScratch[V], p),
		enc:    partition.NewEncoding(pg.Part),
		bags:   make([][]V, n),
		counts: make([]int32, n),
	}
	// The logs' offsets, P+1 owners each, in one allocation.
	off := make([]int32, p*(p+2))
	for q := range sc.parts {
		sc.parts[q].log.Off = off[q*(p+2) : (q+1)*(p+2) : (q+1)*(p+2)]
	}
	return sc
}

// dropPlan leaves the empty plan, which no emission follows.
func (ps *partScratch[V]) dropPlan() {
	ps.slots, ps.log.Groups = ps.slots[:0], ps.log.Groups[:0]
	clear(ps.log.Off)
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

// PlanIteration plans one propagation iteration (Algorithm 5): the Transfer
// stage applies Program.Transfer to every out-edge of every partition, the
// Combine stage folds the received bags. It returns the iteration's one job,
// named "propagation-iteration", and the next state, without running the job.
func PlanIteration[V any](pool *engine.Pool, pg *storage.PartitionedGraph, pl *partition.Placement, prog Program[V], st *State[V], opt Options) ([]*engine.Job, *State[V], error) {
	next, job, err := planIteration(pool, pg, pl, prog, st, opt, "propagation-iteration", nil, nil)
	return []*engine.Job{job}, next, err
}

// planIteration computes one iteration's semantics — the next state and the
// engine job, named name, carrying its exact I/O accounting — without running
// the job. skip, when set, marks the vertices whose state I/O cascaded
// propagation suppresses; topo, when set, routes cross-pod values through an
// Aggregate stage on its pods (tree.go). The semantic computation never reads
// the simulated clock, so the plan is independent of when (or against what
// contention) the job later executes.
func planIteration[V any](pool *engine.Pool, pg *storage.PartitionedGraph, pl *partition.Placement, prog Program[V], st *State[V], opt Options, name string, skip []bool, topo *cluster.Topology) (*State[V], *engine.Job, error) {
	if topo != nil {
		if !prog.Associative() {
			return nil, nil, fmt.Errorf("propagation: tree aggregation requires an associative program")
		}
		opt.LocalPropagation, opt.LocalCombination = true, true
	}
	ex, err := newExecution(pool, pg, pl, prog, st, opt)
	if err != nil {
		return nil, nil, err
	}
	ex.skipStateIO = skip
	if topo != nil {
		ex.tree = newTreeAgg(topo, pl)
	}
	next := ex.run()
	return next, ex.buildJob(name), nil
}

// planner turns a state and an iteration count into a run's engine jobs.
// Every driver plans, then runs: planning is a pure function of graph,
// placement, program and state, so a plan's results are the same however,
// wherever and however often its jobs are later run. Iteration i's job is
// named "<prefix>-iter-<i+1>"; ci, when set, applies cascaded propagation's
// skip sets (§5.2); topo, when set, plans tree aggregation on its pods.
type planner[V any] struct {
	pool   *engine.Pool
	pg     *storage.PartitionedGraph
	pl     *partition.Placement
	prog   Program[V]
	opt    Options
	prefix string
	ci     *CascadeInfo
	topo   *cluster.Topology
}

// plan plans up to iters iterations from st, returning their jobs and the
// final state. each, when set, sees the states before and after every
// iteration as it is planned, and ends the plan there by returning true.
func (p planner[V]) plan(st *State[V], iters int, each func(i int, prev, next *State[V]) bool) ([]*engine.Job, *State[V], error) {
	if iters < 0 {
		return nil, nil, fmt.Errorf("propagation: iteration count %d is negative", iters)
	}
	if ci := p.ci; ci != nil && ci.MinDiameter < 1 {
		return nil, nil, fmt.Errorf("propagation: CascadeInfo.MinDiameter = %d, want at least 1", ci.MinDiameter)
	}
	if ci := p.ci; ci != nil && len(ci.Depth) != p.pg.G.NumVertices() {
		return nil, nil, fmt.Errorf("propagation: CascadeInfo.Depth has %d entries, graph has %d vertices", len(ci.Depth), p.pg.G.NumVertices())
	}
	var jobs []*engine.Job
	for i := 0; i < iters; i++ {
		next, job, err := planIteration(p.pool, p.pg, p.pl, p.prog, st, p.opt,
			fmt.Sprintf("%s-iter-%03d", p.prefix, i+1), p.ci.skip(i, iters), p.topo)
		if err != nil {
			return nil, nil, err
		}
		jobs = append(jobs, job)
		if each != nil && each(i, st, next) {
			return jobs, next, nil
		}
		st = next
	}
	return jobs, st, nil
}

// runPlan runs the jobs a driver planned on r and returns the final state
// they compute. A planning error is returned before anything runs.
func runPlan[V any](r *engine.Runner, jobs []*engine.Job, final *State[V], err error) (*State[V], engine.Metrics, error) {
	var m engine.Metrics
	if err == nil {
		m, err = r.RunJobs(jobs)
	}
	if err != nil {
		return nil, m, err
	}
	return final, m, nil
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
	return planner[V]{pool: pool, pg: pg, pl: pl, prog: prog, opt: opt, prefix: prefix}.plan(st, iters, nil)
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

	n int
	// grouping: the emissions headed to one destination are merged before
	// they leave the partition (local combination) — remote-bound groups
	// shrink the transfer, same-partition groups headed to non-fusable
	// vertices shrink the materialized intermediates (one merged value per
	// destination instead of one per edge).
	grouping bool
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
}

func newExecution[V any](pool *engine.Pool, pg *storage.PartitionedGraph, pl *partition.Placement, prog Program[V], st *State[V], opt Options) (*execution[V], error) {
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
	grouping := prog.Associative() && opt.LocalCombination
	if key := (planKey{opt.LocalPropagation, grouping, opt.VirtualVertices}); st.sc.key != key {
		st.sc.key = key
		for q := range st.sc.parts {
			st.sc.parts[q].dropPlan()
		}
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
		n:             n,
		grouping:      grouping,
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

// transferPart runs one partition's Transfer (or Scatter) calls along its
// emission plan and flushes the grouped values into its log. It writes only
// partition-indexed slots (stateRead[p], its partScratch), so concurrent
// invocations for different partitions never share state.
func (ex *execution[V]) transferPart(p int) {
	pi := ex.pg.Parts[p]
	ps := &ex.sc.parts[p]
	ps.next, ps.collecting = 0, false
	vt, hasVT := any(ex.prog).(VertexTransferrer[V])
	sc, hasSc := any(ex.prog).(Scatterer[V])
	// An emission naming the destination the plan expects is one compare and
	// one store: partition, kind and group were decided when the plan was
	// built. Any other leaves the plan for good.
	emit := func(d graph.VertexID, v V) {
		if i := ps.next; i < len(ps.slots) && ps.slots[i].Key == d {
			ps.log.Vals[ps.slots[i].Pos] = v
			ps.next = i + 1
			return
		}
		ex.collect(pi, ps, d, v)
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
		if ns := ex.pg.G.Neighbors(u); !hasSc {
			for _, dst := range ns {
				ex.prog.Transfer(u, val, dst, emit)
			}
		} else if len(ns) > 0 {
			if v, ok := sc.Scatter(u, val); ok {
				ex.scatter(pi, ps, ns, v)
			}
		}
	}
	ex.stateRead[p] = stateRead
	if ps.next < len(ps.slots) {
		ex.startCollecting(pi, ps) // fewer emissions than planned
	}
	if ps.collecting {
		// The collected emissions are laid out in the log, and where they
		// landed is the plan. A same-partition emission is fused — consumed
		// in memory, no I/O charged — when the destination's inputs are all
		// local (no cross in-edge) and local propagation is on; otherwise it
		// is materialized to local disk for the Combine stage.
		ps.slots = ps.b.BuildReport(&ps.log, ex.grouping, len(ex.pg.Parts)+1, func(d graph.VertexID, _ V) int {
			if q := ex.partOf(d); q != pi.ID || !ex.opt.LocalPropagation || int(d) >= ex.n || pi.HasCrossInEdge(d) {
				return int(q) + 1
			}
			return 0
		})
	}
	if !ex.grouping {
		return // every group is one emission
	}
	// A non-fused group sends one value: its only one, or the merge of its
	// window of log.Vals — capped, so that a Merge appending to the slice
	// cannot reach the next group's values — left where the window starts.
	_, start := ps.log.Run(1)
	for _, g := range ps.log.Groups[ps.log.Off[1]:] {
		if g.End-start > 1 {
			ps.log.Vals[start] = ex.prog.Merge(g.Key, ps.log.Vals[start:g.End:g.End])
		}
		start = g.End
	}
}

// scatter emits v to each destination in ns as emit would, without a call per
// edge while the plan names them; the first it does not name leaves the plan.
func (ex *execution[V]) scatter(pi *storage.PartInfo, ps *partScratch[V], ns []graph.VertexID, v V) {
	slots, vals, i := ps.slots, ps.log.Vals, ps.next
	for ; len(ns) > 0 && i < len(slots) && slots[i].Key == ns[0]; i, ns = i+1, ns[1:] {
		vals[slots[i].Pos] = v
	}
	ps.next = i
	for _, d := range ns {
		ex.collect(pi, ps, d, v)
	}
}

// collect takes an emission the plan did not expect. The range check comes
// first, so that a panicking emission leaves the plan as it found it.
func (ex *execution[V]) collect(pi *storage.PartInfo, ps *partScratch[V], dst graph.VertexID, v V) {
	if int(dst) >= ex.n+ex.opt.VirtualVertices {
		// Unreachable from bytes or flags: every built-in program (apps.ByName) emits only to neighbours and its own VirtualVertices.
		panic(fmt.Sprintf("propagation: emission to vertex %d outside real+virtual space", dst))
	}
	if !ps.collecting {
		ex.startCollecting(pi, ps)
	}
	ps.b.Add(dst, v)
}

// startCollecting leaves the plan: the emissions that followed it so far are
// recovered from where it scattered them and the plan is dropped, so a later
// panic leaves no half of one behind. The buffers are sized for the common
// sequence, one emission per out-edge, not by doubling.
func (ex *execution[V]) startCollecting(pi *storage.PartInfo, ps *partScratch[V]) {
	ps.b.Reset(max(int(pi.OutEdges()), ps.next))
	for _, sl := range ps.slots[:ps.next] {
		ps.b.Add(sl.Key, ps.log.Vals[sl.Pos])
	}
	ps.dropPlan()
	ps.collecting = true
}

// gatherPart delivers to partition q everything the transfer phase left for
// it: it walks the source partitions in index order and each one's run for
// q in log order — the sequence the serial executor delivered in, so
// order-sensitive combines and float summations stay bit-identical — filling
// the bags of q's vertices and charging the I/O of each value; q's own fused
// groups join when the walk reaches source q, all their values, uncharged.
// It writes only what q owns.
//
// A counting pass first sizes every bag as a window into the partition's
// slab, and the builders for the virtual and cross-pod arrivals, so delivery
// never allocates. The counts are an upper bound (tree aggregation claims
// cross-pod values), which also leaves room for the per-(pod, destination)
// merged values it appends after the walk. The virtual bags are grouped last,
// once everything has arrived.
func (ex *execution[V]) gatherPart(q int) {
	sc := ex.sc
	ps := &sc.parts[q]
	total, virt, cross := 0, 0, 0
	for p := range sc.parts {
		groups, _ := sc.parts[p].log.Run(q + 1)
		if ex.tree != nil && ex.tree.pod[p] != ex.tree.pod[q] {
			cross += len(groups)
		}
		for _, g := range groups {
			if int(g.Key) < ex.n {
				sc.counts[sc.enc.ToNew(g.Key)]++
				total++
			} else {
				virt++
			}
		}
	}
	fused, _ := ps.log.Run(0)
	start := int32(0)
	for _, g := range fused {
		sc.counts[sc.enc.ToNew(g.Key)] += g.End - start
		start = g.End
	}
	slab := exchange.Sized(ps.slab, total+int(start))
	ps.slab = slab
	off := 0
	lo, hi := sc.enc.Range(partition.PartID(q))
	bags, counts := sc.bags[lo:hi], sc.counts[lo:hi]
	for i, c := range counts {
		bags[i] = slab[off : off : off+int(c)]
		off += int(c)
		counts[i] = 0
	}
	ps.vb.Reset(virt)
	ps.ab.Reset(cross)
	np := len(sc.parts)
	var local int64
	for p := range sc.parts {
		if p == q {
			start := int32(0)
			for _, g := range fused {
				bag := &sc.bags[sc.enc.ToNew(g.Key)]
				*bag = append(*bag, ps.log.Vals[start:g.End]...)
				start = g.End
			}
		}
		groups, start := sc.parts[p].log.Run(q + 1)
		vals := sc.parts[p].log.Vals
		var remote, toAgg int64
		crossPod := ex.tree != nil && ex.tree.pod[p] != ex.tree.pod[q]
		for _, g := range groups {
			v := vals[start]
			start = g.End
			switch {
			case p == q: // materialized to local disk
				local += ex.prog.Bytes(v)
			case crossPod:
				ps.ab.Add(uint64(ex.tree.pod[p])<<32|uint64(g.Key), v)
				toAgg += ex.prog.Bytes(v)
				continue
			default:
				remote += ex.prog.Bytes(v)
			}
			ex.appendBag(ps, g.Key, v)
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
	ps.vlog.Groups = ps.vlog.Groups[:0]
	if ps.vb.Len() > 0 {
		ps.vb.Build(&ps.vlog, true, 1, nil)
	}
}

// appendBag adds v to dst's bag; ps is the scratch of the partition owning
// dst.
func (ex *execution[V]) appendBag(ps *partScratch[V], dst graph.VertexID, v V) {
	if int(dst) < ex.n {
		bag := &ex.sc.bags[ex.sc.enc.ToNew(dst)]
		*bag = append(*bag, v)
		return
	}
	ps.vb.Add(dst, v)
}

// combinePart runs partition q's Combine calls into next and charges the
// combine-side accounting: its real vertices, then the virtual vertices it
// owns, in id order and from a zero previous value on first receipt. Virtual
// results wait in the partition's scratch for publishVirtual — next.Virtual
// is a map, and maps are not written from the pool.
func (ex *execution[V]) combinePart(q int, next *State[V]) {
	var count, stateWrite, skippedRead int64
	lo, _ := ex.sc.enc.Range(partition.PartID(q))
	bags := ex.sc.bags[lo:] // q's vertices' bags, in the order of its vertex list
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
	ps.vout = ps.vout[:0]
	start := int32(0)
	for _, g := range ps.vlog.Groups {
		bag := ps.vlog.Vals[start:g.End:g.End]
		start = g.End
		val := ex.prog.Combine(g.Key, ex.st.Virtual[g.Key], bag)
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
		total += len(ex.sc.parts[q].vlog.Groups)
	}
	next.Virtual = make(map[graph.VertexID]V, total)
	for q := range ex.sc.parts {
		ps := &ex.sc.parts[q]
		for i, g := range ps.vlog.Groups {
			next.Virtual[g.Key] = ps.vout[i]
		}
	}
	for d, v := range ex.st.Virtual {
		if _, ok := next.Virtual[d]; !ok {
			next.Virtual[d] = v
		}
	}
}

// buildJob converts the accounting into the iteration's engine job, named
// name: Transfer, then Combine — with, under tree aggregation, the Aggregate
// stage between them.
func (ex *execution[V]) buildJob(name string) *engine.Job {
	p := ex.pg.Part.P
	for i := 0; i < p; i++ {
		for q := 0; q < p; q++ {
			ex.receivedBytes[q] += ex.remoteBytes[i*p+q]
		}
	}
	// The Aggregate stage: first P relay tasks forward direct (same-pod)
	// traffic to their combine tasks, then one aggregation task per (pod,
	// destination partition) with traffic — pods, then partitions, in index
	// order — spread over the pod's machines by destination partition so the
	// pod's full egress stays usable. aggTask[pod*P+q] is the stage index of
	// the aggregation task of (pod, q), meaningful where it folded a value.
	var aggregate []*engine.Task
	var aggTask []int
	if t := ex.tree; t != nil {
		aggregate, aggTask = make([]*engine.Task, p, 2*p), make([]int, len(t.inValues))
		for q := 0; q < p; q++ {
			aggregate[q] = &engine.Task{
				Name:    fmt.Sprintf("relay-p%d", q),
				Kind:    engine.KindCombine,
				Part:    partition.PartID(q),
				Machine: ex.pl.MachineOf[q],
			}
			if b := ex.receivedBytes[q]; b > 0 {
				aggregate[q].Outputs = []engine.Output{{DstTask: q, Bytes: b}}
			}
		}
		for k, in := range t.inValues {
			if in == 0 {
				continue
			}
			pod, q := k/p, k%p
			ms := t.machines[pod]
			aggTask[k] = len(aggregate)
			aggregate = append(aggregate, &engine.Task{
				Name:    fmt.Sprintf("aggregate-pod%d-to-p%d", pod, q),
				Kind:    engine.KindCombine,
				Part:    engine.NoPart,
				Machine: ms[q%len(ms)],
				Compute: computePerValue * float64(in),
				Outputs: []engine.Output{{DstTask: q, Bytes: t.outBytes[k]}},
			})
			ex.receivedBytes[q] += t.outBytes[k]
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
		for q := 0; aggregate != nil && q < p; q++ {
			if b := ex.tree.toAgg[i*p+q]; b > 0 {
				outs = append(outs, engine.Output{DstTask: aggTask[ex.tree.pod[i]*p+q], Bytes: b})
			}
		}
		transfer[i] = &engine.Task{
			Name:      fmt.Sprintf("transfer-p%d", i),
			Kind:      engine.KindTransfer,
			Part:      partition.PartID(i),
			Machine:   m,
			Compute:   computePerEdge * float64(pi.OutEdges()),
			DiskRead:  pi.Bytes + ex.stateRead[i],
			DiskWrite: ex.localBytes[i],
			Outputs:   outs,
		}
		combine[i] = &engine.Task{
			Name:    fmt.Sprintf("combine-p%d", i),
			Kind:    engine.KindCombine,
			Part:    partition.PartID(i),
			Machine: m,
			Compute: computePerValue * float64(ex.combineCount[i]),
			// The combine input is the locally materialized intermediates
			// plus the remote arrivals staged on local disk ("all the
			// intermediate results required for the Combine stage is
			// stored on the same machine", §5.1).
			DiskRead:  ex.localBytes[i] + ex.receivedBytes[i],
			DiskWrite: ex.stateWrite[i],
		}
	}
	stages := append(make([]*engine.Stage, 0, 3), &engine.Stage{Name: "transfer", Tasks: transfer})
	if aggregate != nil {
		stages = append(stages, &engine.Stage{Name: "aggregate", Tasks: aggregate})
	}
	return &engine.Job{Name: name, Stages: append(stages, &engine.Stage{Name: "combine", Tasks: combine})}
}
