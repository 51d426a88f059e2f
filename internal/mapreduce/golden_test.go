package mapreduce_test

import (
	"cmp"
	"crypto/sha256"
	"encoding/binary"
	"flag"
	"fmt"
	"hash"
	"math"
	"os"
	"slices"
	"strings"
	"testing"

	"repro/internal/apps"
	"repro/internal/cluster"
	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/mapreduce"
	"repro/internal/partition"
	"repro/internal/storage"
	"repro/internal/trace"
)

var update = flag.Bool("update", false, "rewrite golden files")

// digest hashes a run bit for bit. No put is tagged: the sequence of calls is
// fixed by the row, so two runs of one row hash the same fields in the same
// order.
type digest struct{ h hash.Hash }

func newDigest() *digest { return &digest{h: sha256.New()} }

func (d *digest) u64(x uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], x)
	d.h.Write(b[:])
}
func (d *digest) i64(x int64)   { d.u64(uint64(x)) }
func (d *digest) f64(x float64) { d.u64(math.Float64bits(x)) }
func (d *digest) sum() string   { return fmt.Sprintf("%x", d.h.Sum(nil)) }

func (d *digest) list(l []graph.VertexID) {
	d.u64(uint64(len(l)))
	for _, x := range l {
		d.u64(uint64(x))
	}
}

// run hashes what the engine made of the job: the metrics and the full event
// stream. The stream is where the tasks are pinned — every task's machine
// and busy interval (Compute plus its disk bytes over the disk bandwidth)
// and every Output as a transfer event with its bytes and both machines;
// Metrics.DiskBytes holds the disk total.
func (d *digest) run(t *testing.T, m engine.Metrics, rec *trace.Recorder) {
	t.Helper()
	d.f64(m.ResponseSeconds)
	d.f64(m.MachineSeconds)
	d.i64(m.NetworkBytes)
	d.i64(m.DiskBytes)
	d.i64(int64(m.TasksRun))
	if err := trace.WriteEvents(d.h, nil, rec.Events()); err != nil {
		t.Fatal(err)
	}
}

// results hashes a result map in ascending key order.
func results[K mapreduce.Key, R any](d *digest, res map[K]R, put func(*digest, R)) {
	keys := make([]K, 0, len(res))
	for k := range res {
		keys = append(keys, k)
	}
	slices.SortFunc(keys, func(a, b K) int { return cmp.Compare(a, b) })
	for _, k := range keys {
		d.i64(int64(k))
		put(d, res[k])
	}
}

func putInt(d *digest, v int64)             { d.i64(v) }
func putFloat(d *digest, v float64)         { d.f64(v) }
func putList(d *digest, l []graph.VertexID) { d.list(l) }

// intSum counts in-degrees: the plain scalar program.
type intSum struct{}

func (intSum) Map(pi *storage.PartInfo, g *graph.Graph, emit func(graph.VertexID, int64)) {
	for _, u := range pi.Vertices {
		for _, v := range g.Neighbors(u) {
			emit(v, 1)
		}
	}
}
func (intSum) Reduce(_ graph.VertexID, values []int64) int64 {
	var s int64
	for _, v := range values {
		s += v
	}
	return s
}
func (intSum) PairBytes(graph.VertexID, int64) int64 { return 12 }
func (intSum) ResultBytes(int64) int64               { return 12 }

// floatSum adds values whose magnitudes span twenty binades, so the sum's
// last bits depend on the order the values reach Reduce in.
type floatSum struct{}

func (floatSum) Map(pi *storage.PartInfo, g *graph.Graph, emit func(graph.VertexID, float64)) {
	for _, u := range pi.Vertices {
		for _, v := range g.Neighbors(u) {
			emit(v, math.Ldexp(1/float64(u+3), int(u%21)-10))
		}
	}
}
func (floatSum) Reduce(_ graph.VertexID, values []float64) float64 {
	var s float64
	for _, v := range values {
		s += v
	}
	return s
}
func (floatSum) PairBytes(graph.VertexID, float64) int64 { return 12 }
func (floatSum) ResultBytes(float64) int64               { return 12 }

// asReceived returns a key's values in the order they arrived: the result
// spells out the delivery sequence, and both byte functions depend on the
// value so a pair charged to the wrong task moves the stream.
type asReceived struct{}

func (asReceived) Map(pi *storage.PartInfo, g *graph.Graph, emit func(graph.VertexID, graph.VertexID)) {
	for _, u := range pi.Vertices {
		for _, v := range g.Neighbors(u) {
			emit(v, u)
		}
	}
}
func (asReceived) Reduce(_ graph.VertexID, values []graph.VertexID) []graph.VertexID {
	return slices.Clone(values)
}
func (asReceived) PairBytes(_ graph.VertexID, v graph.VertexID) int64 { return 8 + int64(v&7) }
func (asReceived) ResultBytes(l []graph.VertexID) int64               { return 8 + 4*int64(len(l)) }

// orderFold folds non-commutatively map-side and again in Reduce, so the
// combiner's grouping order and the reducers' delivery order both show.
type orderFold struct{}

func foldOrdered(values []int64) int64 {
	var h int64
	for _, v := range values {
		h = h*31 + v
	}
	return h & (1<<40 - 1)
}

func (orderFold) Map(pi *storage.PartInfo, g *graph.Graph, emit func(graph.VertexID, int64)) {
	for _, u := range pi.Vertices {
		for _, v := range g.Neighbors(u) {
			emit(v%97, int64(u)+1)
			emit(v, int64(u)+1)
		}
	}
}
func (orderFold) CombineValues(_ graph.VertexID, values []int64) int64 { return foldOrdered(values) }
func (orderFold) Reduce(_ graph.VertexID, values []int64) int64        { return foldOrdered(values) }
func (orderFold) PairBytes(_ graph.VertexID, v int64) int64            { return 8 + v&7 }
func (orderFold) ResultBytes(int64) int64                              { return 12 }

// keyed is asReceived's fold under another key type: key maps the
// destination vertex into K.
type keyed[K mapreduce.Key] struct{ key func(graph.VertexID) K }

func (p keyed[K]) Map(pi *storage.PartInfo, g *graph.Graph, emit func(K, int64)) {
	for _, u := range pi.Vertices {
		for _, v := range g.Neighbors(u) {
			emit(p.key(v), int64(u))
		}
	}
}
func (keyed[K]) Reduce(_ K, values []int64) int64 { return foldOrdered(values) }
func (keyed[K]) PairBytes(K, int64) int64         { return 16 }
func (keyed[K]) ResultBytes(int64) int64          { return 16 }

// wideKey spreads destinations over int64 keys at and above 2^32, small
// keys and negative ones; negKey is the int program whose keys are negative
// for every other destination.
func wideKey(v graph.VertexID) int64 {
	switch v % 4 {
	case 0:
		return int64(v)<<32 | int64(v%5)
	case 1:
		return -int64(v) << 20
	case 2:
		return 1<<32 + int64(v)
	}
	return int64(v)
}

func negKey(v graph.VertexID) int {
	if v%2 == 0 {
		return -int(v) - 1
	}
	return int(v)
}

// sparseMap is intSum whose Map emits nothing for two partitions in three.
type sparseMap struct{ intSum }

func (p sparseMap) Map(pi *storage.PartInfo, g *graph.Graph, emit func(graph.VertexID, int64)) {
	if pi.ID%3 == 0 {
		p.intSum.Map(pi, g, emit)
	}
}

// goldenDeployment is one seed's graph on eight partitions and eight
// machines in two pods, under a random placement (§6.3 pairs MapReduce with
// placements that are not bandwidth-aware).
type goldenDeployment struct {
	pg   *storage.PartitionedGraph
	topo *cluster.Topology
	pl   *partition.Placement
}

func newGoldenDeployment(t *testing.T, n int, seed int64) *goldenDeployment {
	t.Helper()
	g := graph.Social(graph.DefaultSocial(n, seed))
	pt, _ := partition.RecursiveBisect(g, 3, partition.Options{Seed: seed})
	pg, err := storage.Build(g, pt)
	if err != nil {
		t.Fatal(err)
	}
	topo := cluster.NewT2(cluster.T2Config{Machines: 8, Pods: 2, Levels: 1})
	return &goldenDeployment{pg: pg, topo: topo, pl: partition.RandomPlacement(pt.P, topo, seed)}
}

func (d *goldenDeployment) runner(workers int, rec *trace.Recorder) *engine.Runner {
	return engine.New(engine.Config{Topo: d.topo, Workers: workers, Trace: rec})
}

// goldenRows appends one program's rows — StatePerVertexBytes 0 and 8 —
// asserting each digest is the same at 1, 2 and 8 workers before recording
// it.
func goldenRows[K mapreduce.Key, V, R any](t *testing.T, out *strings.Builder, name string, seed int64, d *goldenDeployment, prog mapreduce.Program[K, V, R], put func(*digest, R)) {
	t.Helper()
	for _, state := range []int64{0, 8} {
		row := func(workers int) string {
			rec := trace.NewRecorder()
			res, m, err := mapreduce.Run(d.runner(workers, rec), d.pg, d.pl, prog, mapreduce.Options{StatePerVertexBytes: state})
			if err != nil {
				t.Fatal(err)
			}
			dg := newDigest()
			results(dg, res, put)
			dg.run(t, m, rec)
			return dg.sum()
		}
		want := row(1)
		for _, workers := range []int{2, 8} {
			if got := row(workers); got != want {
				t.Errorf("%s state %d seed %d: digest at %d workers %s, at 1 worker %s", name, state, seed, workers, got, want)
			}
		}
		fmt.Fprintf(out, "%s state%d %d %s\n", name, state, seed, want)
	}
}

// appResult hashes what an application's RunMapReduce returns.
func appResult(t *testing.T, d *digest, res any) {
	t.Helper()
	switch r := res.(type) {
	case map[int]int64:
		results(d, r, putInt)
	case []uint8:
		d.h.Write(r)
	case []float64:
		for _, x := range r {
			d.f64(x)
		}
	case [][]graph.VertexID:
		for _, l := range r {
			d.list(l)
		}
	case int64:
		d.i64(r)
	default:
		t.Fatalf("no digest for result type %T", res)
	}
}

// TestMRDigestsGolden pins MapReduce bit for bit: the golden was recorded
// with the serial shuffle (map logs concatenated into per-reducer runs on
// one goroutine, each run grouped by a comparison sort), so an executor
// change that reorders one key's values, moves one byte between two tasks or
// shifts one event fails here. Rows are {int sum, order-dependent float
// sum, values as received, non-commutative combiner, int64 keys beyond 2^32
// and below zero, negative int keys, a Map silent on most partitions} x
// StatePerVertexBytes 0/8 x three seeds, then the six applications'
// RunMapReduce at 4k vertices; each row must also agree with itself at 1, 2
// and 8 workers.
func TestMRDigestsGolden(t *testing.T) {
	const path = "testdata/mr_digests.golden"
	var got strings.Builder
	for _, seed := range []int64{1, 42, 2010} {
		d := newGoldenDeployment(t, 1536, seed)
		goldenRows(t, &got, "intsum", seed, d, intSum{}, putInt)
		goldenRows(t, &got, "floatsum", seed, d, floatSum{}, putFloat)
		goldenRows(t, &got, "asreceived", seed, d, asReceived{}, putList)
		goldenRows(t, &got, "combiner", seed, d, orderFold{}, putInt)
		goldenRows(t, &got, "widekeys", seed, d, keyed[int64]{key: wideKey}, putInt)
		goldenRows(t, &got, "negkeys", seed, d, keyed[int]{key: negKey}, putInt)
		goldenRows(t, &got, "sparse", seed, d, sparseMap{}, putInt)
	}
	d := newGoldenDeployment(t, 4096, 42)
	for _, a := range apps.All() {
		row := func(workers int) string {
			rec := trace.NewRecorder()
			res, m, err := a.RunMapReduce(d.runner(workers, rec), d.pg, d.pl)
			if err != nil {
				t.Fatal(err)
			}
			dg := newDigest()
			appResult(t, dg, res)
			dg.run(t, m, rec)
			return dg.sum()
		}
		want := row(1)
		for _, workers := range []int{2, 8} {
			if got := row(workers); got != want {
				t.Errorf("app %s: digest at %d workers %s, at 1 worker %s", a.Name(), workers, got, want)
			}
		}
		fmt.Fprintf(&got, "app %s 42 %s\n", a.Name(), want)
	}
	if *update {
		if err := os.WriteFile(path, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != string(want) {
		wantLines := strings.Split(strings.TrimSpace(string(want)), "\n")
		for i, l := range strings.Split(strings.TrimSpace(got.String()), "\n") {
			if i >= len(wantLines) || wantLines[i] != l {
				t.Errorf("digest differs from golden line %d: %s", i+1, l)
			}
		}
		if !t.Failed() {
			t.Errorf("golden has %d rows, run produced fewer", len(wantLines))
		}
	}
}
