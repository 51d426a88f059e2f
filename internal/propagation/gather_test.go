package propagation

import (
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/cluster"
	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/partition"
	"repro/internal/storage"
)

// merged is what delivery leaves behind: every bag, real and virtual, and the
// byte tables the engine job is built from.
type merged struct {
	bags                    map[graph.VertexID][]int64
	local, remote, toAgg    []int64
	aggInValues, aggOutByte []int64
}

// serialMerge is the merge this package ran between its two pool phases
// before gatherPart existed, kept as the reference the gather is compared
// with: one goroutine replays the partitions' emission logs in partition-index
// order, delivering into shared bags and charging the I/O. With pod set it is
// also IterateTree's cross-pod hook and its merge per (pod, destination) as
// they ran then. It reads the logs only and resolves every destination's
// partition itself, so it also checks the packed destination word.
func serialMerge(ex *execution[int64], pod []int, pods int) *merged {
	np := len(ex.sc.parts)
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
	for p := range ex.sc.parts {
		for _, e := range ex.sc.parts[p].out {
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
// some also to a virtual vertex.
type orderProgram struct{ n, virtual int }

func (p orderProgram) Init(v graph.VertexID) int64 { return int64(v) + 1 }
func (p orderProgram) Transfer(src graph.VertexID, val int64, dst graph.VertexID, emit Emit[int64]) {
	h := (int64(src)*2654435761 + int64(dst)*40503) & 0xffff
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

// TestQuickGatherMatchesSerialMerge compares the destination-owned gather
// with the serial merge it replaced, bag by bag and element by element, on
// random multigraphs with duplicate edges and self-loops, partitionings that
// leave partitions empty, virtual destinations, all four option pairs, and
// tree aggregation on two or three pods — with the gather on a pool of four.
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
		prog := orderProgram{n: n, virtual: rng.Intn(4)}
		opt := Options{
			LocalPropagation: rng.Intn(2) == 0,
			LocalCombination: rng.Intn(2) == 0,
			VirtualVertices:  prog.virtual,
		}
		pool := engine.NewPool(4)
		ex, err := newExecution(pool, pg, pl, Program[int64](prog), NewState[int64](pg, prog), opt, "")
		if err != nil {
			t.Log(err)
			return false
		}
		var pod []int
		if rng.Intn(2) == 0 {
			ex.tree = newTreeAgg(topo, pl)
			pod = ex.tree.pod
		}
		pool.ForEach(np, ex.transferPart)
		want := serialMerge(ex, pod, topo.NumPods())
		pool.ForEach(np, ex.gatherPart)

		ok := true
		check := func(what string, got, want []int64) {
			if !slices.Equal(got, want) {
				t.Logf("seed %d: %s = %v, serial merge %v", seed, what, got, want)
				ok = false
			}
		}
		for v := 0; v < n; v++ {
			check("bag", ex.sc.bags[ex.sc.slot[v]], want.bags[graph.VertexID(v)])
		}
		virtual := 0
		for q := range ex.sc.parts {
			for d, bag := range ex.sc.parts[q].virt {
				if int(VirtualPartition(d, np)) != q {
					t.Logf("seed %d: virtual vertex %d gathered by partition %d", seed, d, q)
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
			t.Logf("seed %d: virtual bag count differs by %d", seed, virtual)
			ok = false
		}
		check("localBytes", ex.localBytes, want.local)
		check("remoteBytes", ex.remoteBytes, want.remote)
		if ex.tree != nil {
			check("toAgg", ex.tree.toAgg, want.toAgg)
			check("aggregate in-values", ex.tree.inValues, want.aggInValues)
			check("aggregate out-bytes", ex.tree.outBytes, want.aggOutByte)
		}
		return ok
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

// TestTransferPanicLeavesScratchReusable: a Transfer that panics in a pool
// worker, after its partition has logged thousands of emissions, must leave
// the state's pooled scratch as good as new — the transfer phase only writes
// buffers the next transferPart resets, and nothing is counted before the
// gather. The same state then plans the same iteration a fresh one does.
func TestTransferPanicLeavesScratchReusable(t *testing.T) {
	f := newFixture(t, 2000, 2, 5)
	armed := false
	prog := strayProgram{n: f.pg.G.NumVertices(), armed: &armed}
	opt := Options{LocalPropagation: true, LocalCombination: true}
	r := engine.New(engine.Config{Topo: f.topo, Workers: 4})
	st, _, err := Iterate(r, f.pg, f.pl, prog, NewState[int64](f.pg, prog), opt)
	if err != nil {
		t.Fatal(err)
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("expected the armed program to panic")
			}
		}()
		armed = true
		_, _, _ = Iterate(r, f.pg, f.pl, prog, st, opt)
	}()
	armed = false
	for v, c := range st.sc.counts {
		if c != 0 {
			t.Fatalf("counts[%d] = %d after a panicked iteration", v, c)
		}
	}
	fresh := engine.New(engine.Config{Topo: f.topo, Workers: 4})
	wantSt, wantM, err := Iterate(fresh, f.pg, f.pl, prog, st.Clone(), opt)
	if err != nil {
		t.Fatal(err)
	}
	reused := engine.New(engine.Config{Topo: f.topo, Workers: 4})
	gotSt, gotM, err := Iterate(reused, f.pg, f.pl, prog, st, opt)
	if err != nil {
		t.Fatal(err)
	}
	if gotM != wantM {
		t.Fatalf("metrics after a panicked iteration %+v, fresh state %+v", gotM, wantM)
	}
	if !slices.Equal(gotSt.Values, wantSt.Values) {
		t.Fatal("values after a panicked iteration differ from a fresh state's")
	}
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
	g := graph.Social(graph.DefaultSocial(n, 42))
	pt, sk := partition.RecursiveBisect(g, 6, partition.Options{Seed: 42})
	pg, err := storage.Build(g, pt)
	if err != nil {
		b.Fatal(err)
	}
	topo := cluster.NewT2(cluster.T2Config{Machines: 32, Pods: 4, Levels: 1})
	return pg, partition.SketchPlacement(sk, topo)
}

// BenchmarkPlanIterations is propagation.Iterate without the event loop:
// a fresh state and ten planned iterations of the scalar program (one
// nr_262k repetition), with no local optimisation (o1: every edge is logged)
// and with both (o4: the log is what local combination leaves), serial (w1)
// and on GOMAXPROCS workers (wN).
func BenchmarkPlanIterations(b *testing.B) {
	pg, pl := benchDeployment(b)
	for _, lv := range []struct {
		name string
		opt  Options
	}{{"o1", Options{}}, {"o4", Options{LocalPropagation: true, LocalCombination: true}}} {
		for _, w := range []struct {
			name string
			pool *engine.Pool
		}{{"w1", engine.NewPool(1)}, {"wN", engine.NewPool(0)}} {
			b.Run(lv.name+"/"+w.name, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					st := NewState[float64](pg, rankLike{})
					if _, _, err := PlanIterations(w.pool, pg, pl, rankLike{}, st, lv.opt, 10, "bench"); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkGatherCombine times the second pool phase alone — what replaced
// the serial emission-log merge and the Combine pass after it — over the
// warm logs of one o1 transfer phase, where every edge is one log entry.
func BenchmarkGatherCombine(b *testing.B) {
	pg, pl := benchDeployment(b)
	pool := engine.NewPool(0)
	st := NewState[float64](pg, rankLike{})
	ex, err := newExecution(pool, pg, pl, Program[float64](rankLike{}), st, Options{}, "")
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
