package propagation

import (
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/cluster"
	"repro/internal/engine"
	"repro/internal/exchange"
	"repro/internal/graph"
	"repro/internal/partition"
	"repro/internal/storage"
)

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

// emission is one entry of a reference emission log: the exact sequence of
// values the serial executor delivered, with the destination partition and
// the classification its owner needs to charge the I/O (part<<2 | kind).
type emission[V any] struct {
	val  V
	dst  graph.VertexID
	part uint32
}

func pack(q partition.PartID, k emitKind) uint32 { return uint32(q)<<2 | uint32(k) }

func (e *emission[V]) kind() emitKind { return emitKind(e.part & 3) }

// refPart is one partition's transfer output as this package produced it
// before the emission plan, kept as the reference the plan is compared with:
// record classifies every emission as it is made, flushGroups sorts and merges
// the held-back ones, bucketLog counting-sorts the log by destination
// partition.
type refPart[V any] struct {
	// out is the emission log, fused emissions included; sent is out stably
	// sorted by destination partition, bucket q being sent[off[q]:off[q+1]].
	out, sent []emission[V]
	off       []int32
	// key/gval hold emissions pending local combination.
	key  []uint64
	gval []V
}

func (ex *execution[V]) record(pi *storage.PartInfo, rp *refPart[V], dst graph.VertexID, v V) {
	if int(dst) >= ex.n+ex.opt.VirtualVertices {
		panic(fmt.Sprintf("propagation: emission to vertex %d outside real+virtual space", dst))
	}
	q := ex.partOf(dst)
	kind := emitRemote
	if q == pi.ID {
		kind = emitLocal
		if ex.opt.LocalPropagation && int(dst) < ex.n && !pi.HasCrossInEdge(dst) {
			rp.out = append(rp.out, emission[V]{val: v, dst: dst, part: pack(q, emitFused)})
			return
		}
	}
	if ex.grouping {
		rp.key = append(rp.key, uint64(dst)<<32|uint64(len(rp.gval)))
		rp.gval = append(rp.gval, v)
		return
	}
	rp.out = append(rp.out, emission[V]{val: v, dst: dst, part: pack(q, kind)})
}

func (ex *execution[V]) flushGroups(p int, rp *refPart[V]) {
	slices.Sort(rp.key)
	keys := rp.key
	for i := 0; i < len(keys); {
		d := graph.VertexID(keys[i] >> 32)
		var vals []V
		for ; i < len(keys) && graph.VertexID(keys[i]>>32) == d; i++ {
			vals = append(vals, rp.gval[uint32(keys[i])])
		}
		merged := vals[0]
		if len(vals) > 1 {
			merged = ex.prog.Merge(d, vals)
		}
		q := ex.partOf(d)
		kind := emitRemote
		if int(q) == p {
			kind = emitLocal
		}
		rp.out = append(rp.out, emission[V]{val: merged, dst: d, part: pack(q, kind)})
	}
}

func (rp *refPart[V]) bucketLog(np int) {
	rp.off = make([]int32, np+2)
	for i := range rp.out {
		rp.off[rp.out[i].part>>2+2]++
	}
	for q := 2; q < len(rp.off); q++ {
		rp.off[q] += rp.off[q-1]
	}
	rp.sent = make([]emission[V], len(rp.out))
	for i := range rp.out {
		c := &rp.off[rp.out[i].part>>2+1]
		rp.sent[*c] = rp.out[i]
		*c++
	}
}

// refTransfer is the transfer phase on the reference path, one partition
// after the other.
func (ex *execution[V]) refTransfer() []refPart[V] {
	ref := make([]refPart[V], len(ex.pg.Parts))
	vt, hasVT := any(ex.prog).(VertexTransferrer[V])
	for p, pi := range ex.pg.Parts {
		rp := &ref[p]
		emit := func(d graph.VertexID, v V) { ex.record(pi, rp, d, v) }
		for _, u := range pi.Vertices {
			val := ex.st.Values[u]
			if hasVT {
				vt.TransferVertex(u, val, emit)
			}
			for _, dst := range ex.pg.G.Neighbors(u) {
				ex.prog.Transfer(u, val, dst, emit)
			}
		}
		if ex.grouping {
			ex.flushGroups(p, rp)
		}
		rp.bucketLog(len(ex.pg.Parts))
	}
	return ref
}

// merged is what delivery leaves behind: every bag, real and virtual, and the
// byte tables the engine job is built from.
type merged struct {
	bags                    map[graph.VertexID][]int64
	local, remote, toAgg    []int64
	aggInValues, aggOutByte []int64
}

// serialMerge is the merge this package ran between its two pool phases
// before gatherPart existed, kept as the reference the gather is compared
// with: one goroutine replays the partitions' reference emission logs in
// partition-index order, delivering into shared bags and charging the I/O.
// With pod set it is also tree aggregation's cross-pod hook and its merge per
// (pod, destination) as they ran then. It reads the logs only and resolves every
// destination's partition itself, so it also checks the packed destination
// word.
func serialMerge(ex *execution[int64], ref []refPart[int64], pod []int, pods int) *merged {
	np := len(ref)
	m := &merged{
		bags:  map[graph.VertexID][]int64{},
		local: make([]int64, np), remote: make([]int64, np*np), toAgg: make([]int64, np*np),
		aggInValues: make([]int64, pods*np), aggOutByte: make([]int64, pods*np),
	}
	type podDst struct {
		pod int
		dst graph.VertexID
	}
	podVals := map[podDst][]int64{}
	for p := range ref {
		for _, e := range ref[p].out {
			q := int(ex.partOf(e.dst))
			switch e.kind() {
			case emitLocal:
				m.local[p] += ex.prog.Bytes(e.val)
			case emitRemote:
				if pod != nil && pod[p] != pod[q] {
					k := podDst{pod: pod[p], dst: e.dst}
					podVals[k] = append(podVals[k], e.val)
					m.toAgg[p*np+q] += ex.prog.Bytes(e.val)
					continue
				}
				m.remote[p*np+q] += ex.prog.Bytes(e.val)
			}
			m.bags[e.dst] = append(m.bags[e.dst], e.val)
		}
	}
	keys := make([]podDst, 0, len(podVals))
	for k := range podVals {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].pod != keys[j].pod {
			return keys[i].pod < keys[j].pod
		}
		return keys[i].dst < keys[j].dst
	})
	for _, k := range keys {
		vals := podVals[k]
		out := vals[0]
		if len(vals) > 1 {
			out = ex.prog.Merge(k.dst, vals)
		}
		m.bags[k.dst] = append(m.bags[k.dst], out)
		q := int(ex.partOf(k.dst))
		m.aggOutByte[k.pod*np+q] += ex.prog.Bytes(out)
		m.aggInValues[k.pod*np+q] += int64(len(vals))
	}
	return m
}

// orderProgram makes every ordering visible: each emission carries a value
// unique to its edge and copy, Merge folds non-commutatively, and Bytes
// depends on the value, so a swapped pair or a byte charged to the wrong
// partition changes the comparison. Some edges emit nothing, some twice,
// some also to a virtual vertex — the same ones every iteration, so its
// emission plans are followed from the second iteration on.
type orderProgram struct{ n, virtual int }

// edgeHash is the sixteen bits of an edge that decide what it emits.
func edgeHash(src, dst graph.VertexID) int64 {
	return (int64(src)*2654435761 + int64(dst)*40503) & 0xffff
}

func (p orderProgram) Init(v graph.VertexID) int64 { return int64(v) + 1 }
func (p orderProgram) Transfer(src graph.VertexID, val int64, dst graph.VertexID, emit Emit[int64]) {
	h := edgeHash(src, dst)
	switch h % 5 {
	case 0:
		return
	case 1:
		emit(dst, val<<20|h)
	}
	emit(dst, val<<21|h)
	if p.virtual > 0 && h%3 == 0 {
		emit(graph.VertexID(p.n+int(h)%p.virtual), val<<19|h)
	}
}
func (p orderProgram) Combine(_ graph.VertexID, prev int64, values []int64) int64 {
	return p.Merge(0, values) + prev
}
func (p orderProgram) Bytes(v int64) int64 { return 8 + v&7 }
func (p orderProgram) Associative() bool   { return true }
func (p orderProgram) Merge(_ graph.VertexID, values []int64) int64 {
	var h int64
	for _, v := range values {
		h = h*31 + v
	}
	return h
}

// maskProgram is orderProgram with the emission pattern under the test's
// control: an edge falls into one of sixteen classes, and emits iff its
// class's bit of mask is set — a second value, to a virtual vertex when there
// are any, iff the bit sixteen above is set too. Two iterations under one
// mask repeat their emission sequence, a changed bit leaves the plan partway
// through some partitions, and mask 0 emits nothing at all.
type maskProgram struct {
	orderProgram
	mask uint32
}

func (p maskProgram) Transfer(src graph.VertexID, val int64, dst graph.VertexID, emit Emit[int64]) {
	h := edgeHash(src, dst)
	if p.mask>>(h%16)&1 == 0 {
		return
	}
	emit(dst, val<<3^h)
	if p.mask>>(16+h%16)&1 != 0 {
		if p.virtual > 0 {
			dst = graph.VertexID(p.n + int(h)%p.virtual)
		}
		emit(dst, val<<2^h)
	}
}

// planStep runs one iteration of prog from st twice — on the reference path
// (refTransfer, serialMerge, Combine over its bags) and through the executor
// on pool — and reports whether they agree on the log, every bag, the byte
// tables and the next state, which it returns.
func planStep(t testing.TB, pool *engine.Pool, pg *storage.PartitionedGraph, pl *partition.Placement, topo *cluster.Topology,
	prog Program[int64], st *State[int64], opt Options, tree bool) (*State[int64], bool) {
	n, np := pg.G.NumVertices(), pg.Part.P
	ex, err := newExecution(pool, pg, pl, prog, st, opt)
	if err != nil {
		t.Log(err)
		return nil, false
	}
	var pod []int
	if tree {
		ex.tree = newTreeAgg(topo, pl)
		pod = ex.tree.pod
	}
	ref := ex.refTransfer()
	want := serialMerge(ex, ref, pod, topo.NumPods())
	next := &State[int64]{Values: make([]int64, n), sc: ex.sc}
	pool.ForEach(np, ex.transferPart)
	pool.ForEach(np, ex.gatherPart)

	ok := true
	check := func(what string, got, want []int64) {
		if !slices.Equal(got, want) {
			t.Logf("%s = %v, reference %v", what, got, want)
			ok = false
		}
	}
	// The log: each bucket holds the reference's destinations and values,
	// without the fused emissions, which the plan keeps out of it.
	for p := range ref {
		for q := 0; q < np; q++ {
			var got, wantLog []int64
			groups, start := ex.sc.parts[p].log.Run(q + 1)
			for _, g := range groups {
				got = append(got, int64(g.Key), ex.sc.parts[p].log.Vals[start])
				start = g.End
			}
			for _, e := range ref[p].sent[ref[p].off[q]:ref[p].off[q+1]] {
				if e.kind() != emitFused {
					wantLog = append(wantLog, int64(e.dst), e.val)
				}
			}
			check(fmt.Sprintf("log %d->%d", p, q), got, wantLog)
		}
	}
	for v := 0; v < n; v++ {
		check("bag", ex.sc.bags[ex.sc.enc.ToNew(graph.VertexID(v))], want.bags[graph.VertexID(v)])
	}
	virtual := 0
	for q := range ex.sc.parts {
		vlog, start := &ex.sc.parts[q].vlog, int32(0)
		for _, g := range vlog.Groups {
			d, bag := g.Key, vlog.Vals[start:g.End]
			start = g.End
			if int(VirtualPartition(d, np)) != q {
				t.Logf("virtual vertex %d gathered by partition %d", d, q)
				ok = false
			}
			check("virtual bag", bag, want.bags[d])
			virtual++
		}
	}
	for d := range want.bags {
		if int(d) >= n {
			virtual--
		}
	}
	if virtual != 0 {
		t.Logf("virtual bag count differs by %d", virtual)
		ok = false
	}
	check("localBytes", ex.localBytes, want.local)
	check("remoteBytes", ex.remoteBytes, want.remote)
	if tree {
		check("toAgg", ex.tree.toAgg, want.toAgg)
		check("aggregate in-values", ex.tree.inValues, want.aggInValues)
		check("aggregate out-bytes", ex.tree.outBytes, want.aggOutByte)
	}

	pool.ForEach(np, func(q int) { ex.combinePart(q, next) })
	ex.publishVirtual(next)
	wantValues := make([]int64, n)
	for v := range wantValues {
		wantValues[v] = prog.Combine(graph.VertexID(v), st.Values[v], want.bags[graph.VertexID(v)])
	}
	wantVirtual := maps.Clone(st.Virtual)
	for d, bag := range want.bags {
		if int(d) >= n {
			wantVirtual[d] = prog.Combine(d, st.Virtual[d], bag)
		}
	}
	check("next values", next.Values, wantValues)
	if !maps.Equal(next.Virtual, wantVirtual) {
		t.Logf("next virtual values = %v, reference %v", next.Virtual, wantVirtual)
		ok = false
	}
	return next, ok
}

// TestQuickGatherMatchesSerialMerge compares the executor with the transfer
// path and the serial merge it replaced — log by log, bag by bag and element
// by element, then the byte tables and the next state — over five iterations
// of one state chain on random multigraphs with duplicate edges and
// self-loops, partitionings that leave partitions empty, virtual
// destinations, and tree aggregation on two or three pods, on a pool of
// four. Every iteration draws its program — one that repeats its emission
// sequence, one that never does, one under a random mask, which sometimes
// emits nothing — and sometimes flips an option or starts again from the
// state the previous iteration started from, so plans are followed, left
// partway, dropped and rebuilt against the reference.
func TestQuickGatherMatchesSerialMerge(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 20 + rng.Intn(200)
		b := graph.NewBuilder(n).KeepDuplicates()
		for i, m := 0, n*(1+rng.Intn(6)); i < m; i++ {
			u := graph.VertexID(rng.Intn(n))
			v := graph.VertexID(rng.Intn(n))
			b.AddEdge(u, v)
			if rng.Intn(4) == 0 {
				b.AddEdge(u, v)
			}
		}
		np := 1 + rng.Intn(9)
		live := 1 + rng.Intn(np) // partitions live..np-1 stay empty
		pt := &partition.Partitioning{Assign: make([]partition.PartID, n), P: np}
		for v := range pt.Assign {
			pt.Assign[v] = partition.PartID(rng.Intn(live))
		}
		pg, err := storage.Build(b.Build(), pt)
		if err != nil {
			t.Log(err)
			return false
		}
		topo := cluster.NewT2(cluster.T2Config{Machines: 6, Pods: 2 + rng.Intn(2), Levels: 1})
		pl := partition.RandomPlacement(np, topo, seed)
		order := orderProgram{n: n, virtual: rng.Intn(4)}
		opt := Options{
			LocalPropagation: rng.Intn(2) == 0,
			LocalCombination: rng.Intn(2) == 0,
			VirtualVertices:  order.virtual,
		}
		tree := rng.Intn(2) == 0
		pool := engine.NewPool(4)
		st := NewState[int64](pg, order)
		for iter := 0; iter < 5; iter++ {
			var prog Program[int64] = order
			switch rng.Intn(4) {
			case 0:
				prog = driftProgram{n: n, virtual: order.virtual}
			case 1:
				prog = maskProgram{order, rng.Uint32() & rng.Uint32()}
			case 2:
				prog = maskProgram{order, 0}
			}
			switch rng.Intn(8) {
			case 0:
				opt.LocalPropagation = !opt.LocalPropagation
			case 1:
				opt.LocalCombination = !opt.LocalCombination
			}
			next, ok := planStep(t, pool, pg, pl, topo, prog, st, opt, tree)
			if !ok {
				t.Logf("seed %d, iteration %d, %T", seed, iter, prog)
				return false
			}
			if rng.Intn(4) != 0 {
				st = next // else: a second successor of st
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// strayProgram is sumProgram until armed: then the graph's last vertex also
// emits outside the vertex space, which panics in record.
type strayProgram struct {
	sumProgram
	n     int
	armed *bool
}

func (p strayProgram) Transfer(src graph.VertexID, val int64, dst graph.VertexID, emit Emit[int64]) {
	emit(dst, val)
	if *p.armed && int(src) == p.n-1 {
		emit(graph.VertexID(p.n), val)
	}
}

// strayScatter is sumProgram with a Scatter twin until armed: then both
// panic at the graph's last vertex, partway through its partition's plan.
type strayScatter struct {
	sumProgram
	n     int
	armed *bool
}

func (p strayScatter) Scatter(src graph.VertexID, val int64) (int64, bool) {
	if *p.armed && int(src) == p.n-1 {
		panic("stray scatter")
	}
	return val, true
}
func (p strayScatter) Transfer(src graph.VertexID, val int64, dst graph.VertexID, emit Emit[int64]) {
	if v, ok := p.Scatter(src, val); ok {
		emit(dst, v)
	}
}

// fresh copies st's values into a state of its own, with no scratch: the
// state a chain that never planned before would hold.
func fresh[V any](st *State[V]) *State[V] {
	return &State[V]{Values: slices.Clone(st.Values), Virtual: maps.Clone(st.Virtual)}
}

// TestTransferPanicLeavesScratchReusable: a Transfer or a Scatter that panics
// in a pool worker, after its partition has followed its plan through
// thousands of emissions, must leave the state's pooled scratch as good as
// new — the transfer phase only writes buffers the next transferPart
// overwrites, an emission is range-checked before it may touch the plan, and
// nothing is counted before the gather. Every partition's plan is as the
// first iteration built it, and the same state then plans the same iteration
// a fresh one does.
func TestTransferPanicLeavesScratchReusable(t *testing.T) {
	f := newFixture(t, 2000, 2, 5)
	armed := false
	n := f.pg.G.NumVertices()
	for _, prog := range []Program[int64]{strayProgram{n: n, armed: &armed}, strayScatter{n: n, armed: &armed}} {
		name := fmt.Sprintf("%T", prog)
		opt := Options{LocalPropagation: true, LocalCombination: true}
		r := engine.New(engine.Config{Topo: f.topo, Workers: 4})
		st, _, err := iterate(r, f.pg, f.pl, prog, NewState[int64](f.pg, prog), opt)
		if err != nil {
			t.Fatal(err)
		}
		type plan struct {
			slots  []exchange.Entry[graph.VertexID]
			groups []exchange.Group[graph.VertexID]
			off    []int32
		}
		var plans []plan
		for p := range st.sc.parts {
			ps := &st.sc.parts[p]
			plans = append(plans, plan{slices.Clone(ps.slots), slices.Clone(ps.log.Groups), slices.Clone(ps.log.Off)})
		}
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: expected the armed program to panic", name)
				}
			}()
			armed = true
			_, _, _ = iterate(r, f.pg, f.pl, prog, st, opt)
		}()
		armed = false
		for v, c := range st.sc.counts {
			if c != 0 {
				t.Fatalf("%s: counts[%d] = %d after a panicked iteration", name, v, c)
			}
		}
		for p, want := range plans {
			ps := &st.sc.parts[p]
			if len(want.slots) == 0 || !slices.Equal(ps.slots, want.slots) || !slices.Equal(ps.log.Groups, want.groups) ||
				!slices.Equal(ps.log.Off, want.off) {
				t.Fatalf("%s: partition %d's plan did not survive a panicked iteration", name, p)
			}
		}
		wantSt, wantM, err := iterate(engine.New(engine.Config{Topo: f.topo, Workers: 4}), f.pg, f.pl, prog, fresh(st), opt)
		if err != nil {
			t.Fatal(err)
		}
		reused := engine.New(engine.Config{Topo: f.topo, Workers: 4})
		gotSt, gotM, err := iterate(reused, f.pg, f.pl, prog, st, opt)
		if err != nil {
			t.Fatal(err)
		}
		if gotM != wantM {
			t.Fatalf("%s: metrics after a panicked iteration %+v, fresh state %+v", name, gotM, wantM)
		}
		if !slices.Equal(gotSt.Values, wantSt.Values) {
			t.Fatalf("%s: values after a panicked iteration differ from a fresh state's", name)
		}
	}
}

// TestPlanDroppedWhenOptionsChange: a plan is a function of the options it
// was built under. A chain iterated twice under one set — so that its plans
// are in use — and then under another must plan what a fresh state plans, and
// an emission the plan once accepted must panic again when the virtual space
// has shrunk from under it.
func TestPlanDroppedWhenOptionsChange(t *testing.T) {
	f := newFixture(t, 2000, 2, 5)
	n := f.pg.G.NumVertices()
	prog := degreeLike{n: n, buckets: 5}
	opt := Options{LocalPropagation: true, LocalCombination: true, VirtualVertices: 5}
	st := NewState[float64](f.pg, prog)
	for i := 0; i < 2; i++ {
		next, _, err := iterate(f.runner(), f.pg, f.pl, prog, st, opt)
		if err != nil {
			t.Fatal(err)
		}
		st = next
	}
	for _, changed := range []Options{
		{LocalCombination: true, VirtualVertices: 5},
		{LocalPropagation: true, VirtualVertices: 5},
		{LocalPropagation: true, LocalCombination: true, VirtualVertices: 9},
	} {
		wantSt, wantM, err := iterate(f.runner(), f.pg, f.pl, prog, fresh(st), changed)
		if err != nil {
			t.Fatal(err)
		}
		gotSt, gotM, err := iterate(f.runner(), f.pg, f.pl, prog, st, changed)
		if err != nil {
			t.Fatal(err)
		}
		if gotM != wantM || !slices.Equal(gotSt.Values, wantSt.Values) || !maps.Equal(gotSt.Virtual, wantSt.Virtual) {
			t.Fatalf("options %+v after two iterations under %+v: not what a fresh state plans", changed, opt)
		}
		if _, _, err := iterate(f.runner(), f.pg, f.pl, prog, st, opt); err != nil { // plans back under opt
			t.Fatal(err)
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("an emission outside the shrunken virtual space did not panic")
		}
	}()
	opt.VirtualVertices = 3
	_, _, _ = iterate(f.runner(), f.pg, f.pl, prog, st, opt)
}

// benchDeployment is the layer benchmarks' input: the host-clock benchmark's
// nr_262k deployment — a 262 144-vertex social graph on 64 partitions — or
// 16k vertices under -short.
func benchDeployment(b *testing.B) (*storage.PartitionedGraph, *partition.Placement) {
	b.Helper()
	n := 262144
	if testing.Short() {
		n = 16384
	}
	return deployment(b, n)
}

// deployment is nr_262k's deployment at n vertices: a social graph bisected
// into 64 partitions, sketch-placed on a T2 of 32 machines in 4 pods.
func deployment(tb testing.TB, n int) (*storage.PartitionedGraph, *partition.Placement) {
	tb.Helper()
	g := graph.Social(graph.DefaultSocial(n, 42))
	pt, sk := partition.RecursiveBisect(g, 6, partition.Options{Seed: 42})
	pg, err := storage.Build(g, pt)
	if err != nil {
		tb.Fatal(err)
	}
	topo := cluster.NewT2(cluster.T2Config{Machines: 32, Pods: 4, Levels: 1})
	return pg, partition.SketchPlacement(sk, topo)
}

// BenchmarkPlanIterations is planning without the event loop:
// a fresh state and ten planned iterations (one nr_262k repetition) of the
// scalar program with no local optimisation (o1: every edge is logged) and
// with both (o4: the log is what local combination leaves), and of drift at
// o4 — the program no emission plan serves — serial (w1) and on GOMAXPROCS
// workers (wN).
func BenchmarkPlanIterations(b *testing.B) {
	pg, pl := benchDeployment(b)
	o4 := Options{LocalPropagation: true, LocalCombination: true}
	benchPlan(b, "o1", pg, pl, Program[float64](rankLike{}), Options{})
	benchPlan(b, "o4", pg, pl, Program[float64](rankLike{}), o4)
	o4.VirtualVertices = 7
	benchPlan(b, "drift", pg, pl, Program[int64](driftProgram{n: pg.G.NumVertices(), virtual: o4.VirtualVertices}), o4)
}

func benchPlan[V any](b *testing.B, name string, pg *storage.PartitionedGraph, pl *partition.Placement, prog Program[V], opt Options) {
	for _, w := range []struct {
		name string
		pool *engine.Pool
	}{{"w1", engine.NewPool(1)}, {"wN", engine.NewPool(0)}} {
		b.Run(name+"/"+w.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, err := PlanIterations(w.pool, pg, pl, prog, NewState(pg, prog), opt, 10, "bench"); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkTransferPart times the first pool phase alone, serially, at o4, in
// the three states a partition's emission plan can be in: followed to the end
// (hit: the scalar program, whose emission sequence repeats), absent (build:
// the same with every plan dropped first — a first iteration), and left
// partway by every partition (miss: drift, whose sequence never repeats).
// The scatter rows are hit and build for the scalar program's Scatter twin,
// one call per vertex instead of one per edge.
func BenchmarkTransferPart(b *testing.B) {
	pg, pl := benchDeployment(b)
	opt := Options{LocalPropagation: true, LocalCombination: true}
	b.Run("hit", func(b *testing.B) { benchTransfer(b, pg, pl, Program[float64](rankLike{}), opt, false) })
	b.Run("build", func(b *testing.B) { benchTransfer(b, pg, pl, Program[float64](rankLike{}), opt, true) })
	b.Run("scatter/hit", func(b *testing.B) { benchTransfer(b, pg, pl, Program[float64](rankScatter{}), opt, false) })
	b.Run("scatter/build", func(b *testing.B) { benchTransfer(b, pg, pl, Program[float64](rankScatter{}), opt, true) })
	opt.VirtualVertices = 7
	drift := driftProgram{n: pg.G.NumVertices(), virtual: opt.VirtualVertices}
	b.Run("miss", func(b *testing.B) { benchTransfer(b, pg, pl, Program[int64](drift), opt, false) })
}

// benchTransfer alternates the transfer phases of two executions on one
// scratch — an initial state and its successor, so a value-dependent program
// emits another sequence each time — and reports the time per emission.
func benchTransfer[V any](b *testing.B, pg *storage.PartitionedGraph, pl *partition.Placement, prog Program[V], opt Options, drop bool) {
	pool := engine.NewPool(1)
	var exs [2]*execution[V]
	st := NewState(pg, prog)
	for i := range exs {
		ex, err := newExecution(pool, pg, pl, prog, st, opt)
		if err != nil {
			b.Fatal(err)
		}
		exs[i], st = ex, ex.run(nil)
	}
	emissions := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ex := exs[i%2]
		for q := range ex.sc.parts {
			if drop {
				ex.sc.parts[q].dropPlan()
			}
		}
		pool.ForEach(len(pg.Parts), ex.transferPart)
		for q := range ex.sc.parts {
			emissions += len(ex.sc.parts[q].slots)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(emissions), "ns/emission")
}

// BenchmarkGatherCombine times the second pool phase alone — what replaced
// the serial emission-log merge and the Combine pass after it — over the
// warm logs of one o1 transfer phase, where every edge is one log entry.
func BenchmarkGatherCombine(b *testing.B) {
	pg, pl := benchDeployment(b)
	pool := engine.NewPool(0)
	st := NewState[float64](pg, rankLike{})
	ex, err := newExecution(pool, pg, pl, Program[float64](rankLike{}), st, Options{})
	if err != nil {
		b.Fatal(err)
	}
	np := len(pg.Parts)
	pool.ForEach(np, ex.transferPart)
	next := &State[float64]{Values: make([]float64, ex.n)}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pool.ForEach(np, func(q int) {
			ex.gatherPart(q)
			ex.combinePart(q, next)
		})
	}
}
