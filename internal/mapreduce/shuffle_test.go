package mapreduce

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/cluster"
	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/partition"
	"repro/internal/storage"
)

// The reference: the shuffle execute replaced, kept as it was. Map tasks fill
// logs of (pair, reducer), one goroutine concatenates the logs into
// per-reducer runs in map-task index order — the serial delivery order — and
// each run is grouped by a comparison sort of an index permutation.

// kv is one emitted key/value pair.
type kv[K Key, V any] struct {
	key K
	val V
}

// shuffled is one entry of a reference map log: the pair plus its
// destination reducer.
type shuffled[K Key, V any] struct {
	key K
	val V
	red int
}

// groupSorted sorts an index permutation of the log by key, ties broken on
// log position, and calls fn once per distinct key, ascending, with that
// key's values in log order.
func groupSorted[K Key, V any](log []kv[K, V], fn func(k K, vals []V)) {
	idx := make([]int32, len(log))
	for j := range idx {
		idx[j] = int32(j)
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
		var vals []V
		e := s
		for ; e < len(idx) && log[idx[e]].key == k; e++ {
			vals = append(vals, log[idx[e]].val)
		}
		s = e
		fn(k, vals)
	}
}

// referenceExecute is execute on the reference shuffle, on one goroutine.
func referenceExecute[K Key, V any, R any](pg *storage.PartitionedGraph, prog Program[K, V, R]) (map[K]R, account) {
	p := pg.Part.P
	reducers := p
	acct := account{
		pairsEmitted:   make([]int64, p),
		shuffleBytes:   make([][]int64, p),
		reduceValues:   make([]int64, reducers),
		reduceOutBytes: make([]int64, reducers),
	}
	perMap := make([][]shuffled[K, V], p)
	combiner, hasCombiner := prog.(Combiner[K, V])
	for i, pi := range pg.Parts {
		acct.shuffleBytes[i] = make([]int64, reducers)
		send := func(k K, v V) {
			red := hashKey(k, reducers)
			acct.shuffleBytes[i][red] += prog.PairBytes(k, v)
			perMap[i] = append(perMap[i], shuffled[K, V]{key: k, val: v, red: red})
		}
		if !hasCombiner {
			prog.Map(pi, pg.G, func(k K, v V) {
				acct.pairsEmitted[i]++
				send(k, v)
			})
			continue
		}
		var pairs []kv[K, V]
		prog.Map(pi, pg.G, func(k K, v V) {
			pairs = append(pairs, kv[K, V]{key: k, val: v})
			acct.pairsEmitted[i]++
		})
		groupSorted(pairs, func(k K, vals []V) {
			folded := vals[0]
			if len(vals) > 1 {
				folded = combiner.CombineValues(k, vals)
			}
			send(k, folded)
		})
	}
	redLogs := make([][]kv[K, V], reducers)
	for i := range perMap {
		for _, s := range perMap[i] {
			redLogs[s.red] = append(redLogs[s.red], kv[K, V]{key: s.key, val: s.val})
		}
	}
	results := make(map[K]R)
	for red := range redLogs {
		groupSorted(redLogs[red], func(k K, vals []V) {
			res := prog.Reduce(k, vals)
			results[k] = res
			acct.reduceValues[red] += int64(len(vals))
			acct.reduceOutBytes[red] += prog.ResultBytes(res)
		})
	}
	return results, acct
}

// orderProg spells out what the shuffle did to it: a key's result is its
// values in the order Reduce received them, both byte functions depend on
// what they measure, and the edge's destination reaches K through key.
type orderProg[K Key] struct{ key func(graph.VertexID) K }

func (p orderProg[K]) Map(pi *storage.PartInfo, g *graph.Graph, emit func(K, int64)) {
	for _, u := range pi.Vertices {
		for j, v := range g.Neighbors(u) {
			emit(p.key(v), int64(u)<<8|int64(j&0xff))
		}
	}
}
func (orderProg[K]) Reduce(_ K, values []int64) []int64 { return slices.Clone(values) }
func (orderProg[K]) PairBytes(k K, v int64) int64       { return 8 + int64(uint64(k)&3) + v&7 }
func (orderProg[K]) ResultBytes(r []int64) int64        { return 8 + 8*int64(len(r)) }

// foldProg is orderProg with a combiner whose fold is not commutative.
type foldProg[K Key] struct{ orderProg[K] }

func (foldProg[K]) CombineValues(_ K, values []int64) int64 {
	var h int64
	for _, v := range values {
		h = h*31 + v
	}
	return h
}

// matchesReference runs prog through execute on the pool and through the
// reference, and compares everything either leaves behind: the result of
// every key — with orderProg, the value sequence its reducer saw — element
// by element, and the four accounting tables.
func matchesReference[K Key](t *testing.T, pool *engine.Pool, pg *storage.PartitionedGraph, key func(graph.VertexID) K, combine bool) bool {
	t.Helper()
	var prog Program[K, int64, []int64] = orderProg[K]{key}
	if combine {
		prog = foldProg[K]{orderProg[K]{key}}
	}
	want, wantAcct := referenceExecute(pg, prog)
	got, gotAcct := execute(pool, pg, prog)
	if len(got) != len(want) {
		t.Logf("%d keys, want %d", len(got), len(want))
		return false
	}
	for k, w := range want {
		if g, ok := got[k]; !ok || !slices.Equal(g, w) {
			t.Logf("key %d: values %v, want %v", k, g, w)
			return false
		}
	}
	if !reflect.DeepEqual(gotAcct, wantAcct) {
		t.Logf("accounting %+v, want %+v", gotAcct, wantAcct)
		return false
	}
	return true
}

// matchesAtWidth picks the key type: the graph's own 32-bit IDs, signed keys
// that go negative, 64-bit keys above 2^32 and with the top bit set, and one
// key for everything.
func matchesAtWidth(t *testing.T, width uint8, pool *engine.Pool, pg *storage.PartitionedGraph, combine bool) bool {
	t.Helper()
	switch width % 6 {
	case 0:
		return matchesReference(t, pool, pg, func(v graph.VertexID) graph.VertexID { return v }, combine)
	case 1:
		return matchesReference(t, pool, pg, func(v graph.VertexID) int32 { return int32(v)*(1-2*int32(v&1)) - 3 }, combine)
	case 2:
		return matchesReference(t, pool, pg, func(v graph.VertexID) int { return 7 - int(v)<<(v%3*13) }, combine)
	case 3:
		return matchesReference(t, pool, pg, func(v graph.VertexID) int64 { return int64(v%5)<<40 | int64(v)<<(v&1*32) }, combine)
	case 4:
		return matchesReference(t, pool, pg, func(v graph.VertexID) uint64 { return ^uint64(v) >> (v % 4 * 16) }, combine)
	}
	return matchesReference(t, pool, pg, func(graph.VertexID) uint32 { return 0 }, combine)
}

// TestQuickShuffleMatchesReference holds execute to the serial shuffle it
// replaced on random multigraphs — duplicate edges, partitions left empty,
// every key width, with and without a combiner — on a pool of four.
func TestQuickShuffleMatchesReference(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 20 + rng.Intn(200)
		b := graph.NewBuilder(n).KeepDuplicates()
		for i, m := 0, n*(1+rng.Intn(6)); i < m; i++ {
			u, v := graph.VertexID(rng.Intn(n)), graph.VertexID(rng.Intn(n))
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
		width, combine := uint8(rng.Intn(6)), rng.Intn(2) == 0
		if !matchesAtWidth(t, width, engine.NewPool(4), pg, combine) {
			t.Logf("seed %d, key width %d, combiner %v", seed, width, combine)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// FuzzShuffle fuzzes execute against the reference shuffle: consecutive byte
// pairs are edges (duplicates kept), pick selects the key width and whether
// the program combines, and both must agree at 1 and at 4 workers.
func FuzzShuffle(f *testing.F) {
	f.Add([]byte{0, 1, 1, 2, 2, 0}, uint8(0))
	f.Add([]byte{0, 0, 5, 9, 9, 5, 3, 7, 7, 3, 1, 4, 5, 9}, uint8(9))
	f.Add([]byte{255, 0, 0, 255, 128, 64, 64, 128}, uint8(4))
	f.Fuzz(func(t *testing.T, data []byte, pick uint8) {
		if len(data) > 512 {
			data = data[:512]
		}
		const n = 64
		b := graph.NewBuilder(n).KeepDuplicates()
		for i := 0; i+1 < len(data); i += 2 {
			b.AddEdge(graph.VertexID(int(data[i])%n), graph.VertexID(int(data[i+1])%n))
		}
		g := b.Build()
		pt, _ := partition.RecursiveBisect(g, 2, partition.Options{Seed: 1})
		pg, err := storage.Build(g, pt)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 4} {
			if !matchesAtWidth(t, pick%6, engine.NewPool(workers), pg, pick >= 6 && pick%2 == 0) {
				t.Fatalf("workers=%d, pick %d: execute differs from the reference shuffle", workers, pick)
			}
		}
	})
}

// sortingSum sorts its window in place before summing it — allowed: the
// window is the call's to reorder.
type sortingSum struct{ edgeCount }

func (sortingSum) Map(pi *storage.PartInfo, g *graph.Graph, emit func(graph.VertexID, int64)) {
	for _, u := range pi.Vertices {
		for _, v := range g.Neighbors(u) {
			emit(v, int64(u))
		}
	}
}

func (p sortingSum) Reduce(k graph.VertexID, values []int64) int64 {
	slices.Sort(values)
	if !slices.IsSorted(values) {
		panic("window not writable")
	}
	return p.edgeCount.Reduce(k, values)
}

// retainer keeps every window it is handed, beside a copy taken during the
// call — the violation of Program.Reduce's contract.
type retainer struct {
	sortingSum
	windows, copies *[][]int64
}

func (p retainer) Reduce(k graph.VertexID, values []int64) int64 {
	*p.windows = append(*p.windows, values)
	*p.copies = append(*p.copies, slices.Clone(values))
	return p.edgeCount.Reduce(k, values)
}

// TestReduceWindowContract pins both halves of the values contract: a Reduce
// may reorder its window in place — the neighbouring keys' values and every
// result are what a copying Reduce sees — and a Reduce that retains its
// window is the violation: the group buffer is reused, so what it kept is
// other keys' values by the time Run returns.
func TestReduceWindowContract(t *testing.T) {
	pg, _, r := newFixture(t, 1000, 3, 9)
	want, _ := referenceExecute[graph.VertexID, int64, int64](pg, sortingSum{})
	got, _ := execute[graph.VertexID, int64, int64](r.Pool(), pg, sortingSum{})
	if !reflect.DeepEqual(got, want) {
		t.Fatal("a Reduce that sorts its window in place changed a result")
	}
	var windows, copies [][]int64
	execute[graph.VertexID, int64, int64](engine.NewPool(1), pg, retainer{windows: &windows, copies: &copies})
	stale := 0
	for i := range windows {
		if !slices.Equal(windows[i], copies[i]) {
			stale++
		}
	}
	if stale == 0 {
		t.Fatal("retained windows all kept their values: the group buffer is no longer reused, so the contract's warning is out of date")
	}
	t.Logf("%d of %d retained windows were overwritten by later groups", stale, len(windows))
}

// BenchmarkRun is one whole Run — map, shuffle, reduce, engine job — of a
// scalar sum, a list-valued reduce and a combining program over the
// host-clock benchmark's suite_65k deployment (65 536 vertices on 64
// partitions; 16k under -short), serial (w1) and on GOMAXPROCS workers (wN).
func BenchmarkRun(b *testing.B) {
	n := 65536
	if testing.Short() {
		n = 16384
	}
	g := graph.Social(graph.DefaultSocial(n, 42))
	pt, _ := partition.RecursiveBisect(g, 6, partition.Options{Seed: 42})
	pg, err := storage.Build(g, pt)
	if err != nil {
		b.Fatal(err)
	}
	id := func(v graph.VertexID) graph.VertexID { return v }
	benchRun[graph.VertexID, int64, int64](b, "sum", pg, edgeCount{})
	benchRun[graph.VertexID, int64, []int64](b, "list", pg, orderProg[graph.VertexID]{id})
	benchRun[graph.VertexID, int64, int64](b, "combiner", pg, combiningCount{})
}

func benchRun[K Key, V, R any](b *testing.B, name string, pg *storage.PartitionedGraph, prog Program[K, V, R]) {
	topo := cluster.NewT2(cluster.T2Config{Machines: 32, Pods: 4, Levels: 1})
	pl := partition.RandomPlacement(pg.Part.P, topo, 42)
	for _, w := range []struct {
		name    string
		workers int
	}{{"w1", 1}, {"wN", 0}} {
		b.Run(name+"/"+w.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				r := engine.New(engine.Config{Topo: topo, Workers: w.workers})
				if _, _, err := Run(r, pg, pl, prog, Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
