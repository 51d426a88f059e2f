package propagation

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/partition"
	"repro/internal/storage"
)

// iterate plans one iteration and runs it on r: PlanIteration replayed, as
// the one-pass applications run.
func iterate[V any](r *engine.Runner, pg *storage.PartitionedGraph, pl *partition.Placement, prog Program[V], st *State[V], opt Options) (*State[V], engine.Metrics, error) {
	next, job, err := planIteration(r.Pool(), pg, pl, prog, st, opt, "propagation-iteration", nil, nil, nil)
	return runPlan(r, []*engine.Job{job}, next, err)
}

// sumProgram is a minimal associative program: every vertex sends its value
// along each out-edge; combine sums.
type sumProgram struct{}

func (sumProgram) Init(v graph.VertexID) int64 { return int64(v) }
func (sumProgram) Transfer(src graph.VertexID, val int64, dst graph.VertexID, emit Emit[int64]) {
	emit(dst, val)
}
func (sumProgram) Combine(_ graph.VertexID, _ int64, values []int64) int64 {
	var s int64
	for _, v := range values {
		s += v
	}
	return s
}
func (sumProgram) Bytes(int64) int64 { return 8 }
func (sumProgram) Associative() bool { return true }
func (sumProgram) Merge(_ graph.VertexID, values []int64) int64 {
	var s int64
	for _, v := range values {
		s += v
	}
	return s
}

// listProgram is a non-associative program shipping singleton lists.
type listProgram struct {
	NonAssociative[[]int64]
}

func (listProgram) Init(v graph.VertexID) []int64 { return []int64{int64(v)} }
func (listProgram) Transfer(src graph.VertexID, val []int64, dst graph.VertexID, emit Emit[[]int64]) {
	emit(dst, val)
}
func (listProgram) Combine(_ graph.VertexID, _ []int64, values [][]int64) []int64 {
	var out []int64
	for _, l := range values {
		out = append(out, l...)
	}
	return out
}
func (listProgram) Bytes(l []int64) int64 { return 8 * int64(len(l)) }

type fixture struct {
	pg   *storage.PartitionedGraph
	pl   *partition.Placement
	topo *cluster.Topology
}

func newFixture(t *testing.T, n int, levels int, seed int64) *fixture {
	t.Helper()
	g := graph.SmallWorld(graph.DefaultSmallWorld(n, seed))
	pt, sk := partition.RecursiveBisect(g, levels, partition.Options{Seed: seed})
	pg, err := storage.Build(g, pt)
	if err != nil {
		t.Fatal(err)
	}
	topo := cluster.NewT1(4)
	return &fixture{pg: pg, pl: partition.SketchPlacement(sk, topo), topo: topo}
}

func (f *fixture) runner() *engine.Runner { return engine.New(engine.Config{Topo: f.topo}) }

func refSum(g *graph.Graph) []int64 {
	out := make([]int64, g.NumVertices())
	g.ForEachEdge(func(u, v graph.VertexID) bool {
		out[v] += int64(u)
		return true
	})
	return out
}

func TestIterateMatchesReferenceAllOptLevels(t *testing.T) {
	f := newFixture(t, 1000, 2, 1)
	want := refSum(f.pg.G)
	for _, opt := range []Options{
		{},
		{LocalPropagation: true},
		{LocalCombination: true},
		{LocalPropagation: true, LocalCombination: true},
	} {
		st := NewState[int64](f.pg, sumProgram{})
		next, _, err := iterate(f.runner(), f.pg, f.pl, sumProgram{}, st, opt)
		if err != nil {
			t.Fatal(err)
		}
		for v := range want {
			if next.Values[v] != want[v] {
				t.Fatalf("opt %+v: value[%d] = %d, want %d", opt, v, next.Values[v], want[v])
			}
		}
	}
}

func TestOptimizationLevelsOrderedByIO(t *testing.T) {
	// O1 >= O3 on both network and disk; local combination alone must
	// reduce network; local propagation alone must reduce disk.
	f := newFixture(t, 2000, 3, 2)
	run := func(opt Options) engine.Metrics {
		st := NewState[int64](f.pg, sumProgram{})
		_, m, err := iterate(f.runner(), f.pg, f.pl, sumProgram{}, st, opt)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	o1 := run(Options{})
	lp := run(Options{LocalPropagation: true})
	lc := run(Options{LocalCombination: true})
	o3 := run(Options{LocalPropagation: true, LocalCombination: true})
	if lp.DiskBytes >= o1.DiskBytes {
		t.Errorf("local propagation did not cut disk: %d vs %d", lp.DiskBytes, o1.DiskBytes)
	}
	if lp.NetworkBytes != o1.NetworkBytes {
		t.Errorf("local propagation changed network: %d vs %d", lp.NetworkBytes, o1.NetworkBytes)
	}
	if lc.NetworkBytes >= o1.NetworkBytes {
		t.Errorf("local combination did not cut network: %d vs %d", lc.NetworkBytes, o1.NetworkBytes)
	}
	if o3.DiskBytes >= o1.DiskBytes || o3.NetworkBytes >= o1.NetworkBytes {
		t.Errorf("O3 not better than O1: disk %d/%d net %d/%d", o3.DiskBytes, o1.DiskBytes, o3.NetworkBytes, o1.NetworkBytes)
	}
	if o3.DiskBytes > lp.DiskBytes {
		t.Errorf("O3 disk worse than LP alone: %d vs %d", o3.DiskBytes, lp.DiskBytes)
	}
}

func TestNonAssociativeIgnoresLocalCombination(t *testing.T) {
	// Local combination must be a no-op for non-associative programs
	// (Merge would change semantics); network bytes must be identical.
	f := newFixture(t, 800, 2, 3)
	run := func(opt Options) engine.Metrics {
		st := NewState[[]int64](f.pg, listProgram{})
		_, m, err := iterate(f.runner(), f.pg, f.pl, listProgram{}, st, opt)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	off := run(Options{})
	on := run(Options{LocalCombination: true})
	if off.NetworkBytes != on.NetworkBytes || off.DiskBytes != on.DiskBytes {
		t.Fatalf("local combination affected a non-associative program: %+v vs %+v", off, on)
	}
}

func TestVirtualVertexRouting(t *testing.T) {
	f := newFixture(t, 500, 2, 4)
	n := f.pg.G.NumVertices()
	// Program: every vertex sends 1 to virtual vertex n + (v mod 3).
	prog := &virtProgram{n: n}
	st := NewState[int64](f.pg, prog)
	opt := Options{VirtualVertices: 3}
	next, _, err := iterate(f.runner(), f.pg, f.pl, prog, st, opt)
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	for i := 0; i < 3; i++ {
		total += next.Virtual[graph.VertexID(n+i)]
	}
	if total != int64(n) {
		t.Fatalf("virtual totals = %d, want %d", total, n)
	}
}

type virtProgram struct {
	n int
}

func (p *virtProgram) Init(graph.VertexID) int64 { return 0 }
func (p *virtProgram) TransferVertex(v graph.VertexID, _ int64, emit Emit[int64]) {
	if int(v) < p.n {
		emit(graph.VertexID(p.n+int(v)%3), 1)
	}
}
func (p *virtProgram) Transfer(graph.VertexID, int64, graph.VertexID, Emit[int64]) {}
func (p *virtProgram) Combine(_ graph.VertexID, prev int64, values []int64) int64 {
	s := prev
	for _, v := range values {
		s += v
	}
	return s
}
func (p *virtProgram) Bytes(int64) int64 { return 8 }
func (p *virtProgram) Associative() bool { return true }
func (p *virtProgram) Merge(_ graph.VertexID, values []int64) int64 {
	var s int64
	for _, v := range values {
		s += v
	}
	return s
}

func TestEmitOutsideSpacePanics(t *testing.T) {
	f := newFixture(t, 100, 1, 5)
	prog := &virtProgram{n: f.pg.G.NumVertices()}
	st := NewState[int64](f.pg, prog)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for emission outside virtual space")
		}
	}()
	// VirtualVertices = 0 makes the virtual emission invalid.
	_, _, _ = iterate(f.runner(), f.pg, f.pl, prog, st, Options{VirtualVertices: 0})
}

func TestIterateValidatesSizes(t *testing.T) {
	f := newFixture(t, 100, 1, 6)
	st := &State[int64]{Values: make([]int64, 5)}
	if _, _, err := iterate(f.runner(), f.pg, f.pl, sumProgram{}, st, Options{}); err == nil {
		t.Fatal("expected size mismatch error")
	}
	badPl := &partition.Placement{MachineOf: make([]cluster.MachineID, 1)}
	st2 := NewState[int64](f.pg, sumProgram{})
	if _, _, err := iterate(f.runner(), f.pg, badPl, sumProgram{}, st2, Options{}); err == nil {
		t.Fatal("expected placement mismatch error")
	}
}

func TestRunIterationsAccumulates(t *testing.T) {
	f := newFixture(t, 500, 2, 7)
	st := NewState[int64](f.pg, sumProgram{})
	_, m1, err := iterate(f.runner(), f.pg, f.pl, sumProgram{}, st, Options{})
	if err != nil {
		t.Fatal(err)
	}
	st2 := NewState[int64](f.pg, sumProgram{})
	_, m3, err := RunIterations(f.runner(), f.pg, f.pl, sumProgram{}, st2, Options{}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if m3.DiskBytes <= 2*m1.DiskBytes {
		t.Fatalf("3 iterations disk %d not > 2x single %d", m3.DiskBytes, m1.DiskBytes)
	}
}

func TestAnalyzeCascadeDepths(t *testing.T) {
	// Hand-built graph: two partitions {0,1,2,3} and {4,5}; edges
	// 4->0 (cross), 0->1->2->3 (chain), 5->5 irrelevant.
	g := graph.FromEdges(6, [][2]graph.VertexID{
		{4, 0}, {0, 1}, {1, 2}, {2, 3}, {4, 5},
	})
	pt := &partition.Partitioning{Assign: []partition.PartID{0, 0, 0, 0, 1, 1}, P: 2}
	pg, err := storage.Build(g, pt)
	if err != nil {
		t.Fatal(err)
	}
	ci := AnalyzeCascade(pg)
	want := []int{0, 1, 2, 3}
	for v, d := range want {
		if ci.Depth[v] != d {
			t.Errorf("depth[%d] = %d, want %d", v, ci.Depth[v], d)
		}
	}
	// Vertex 4 never receives outside info: V_inf.
	if ci.Depth[4] != InfiniteDepth {
		t.Errorf("depth[4] = %d, want inf", ci.Depth[4])
	}
	// Vertex 5 receives only from 4 (same partition): V_inf too.
	if ci.Depth[5] != InfiniteDepth {
		t.Errorf("depth[5] = %d, want inf", ci.Depth[5])
	}
	if r := ci.VkRatio(2); r != 4.0/6 {
		t.Errorf("VkRatio(2) = %g, want %g", r, 4.0/6)
	}
}

func TestCascadedMatchesPlainResults(t *testing.T) {
	f := newFixture(t, 1000, 2, 8)
	iters := 5
	stA := NewState[int64](f.pg, sumProgram{})
	plain, _, err := RunIterations(f.runner(), f.pg, f.pl, sumProgram{}, stA, Options{LocalPropagation: true, LocalCombination: true}, iters)
	if err != nil {
		t.Fatal(err)
	}
	stB := NewState[int64](f.pg, sumProgram{})
	casc, _, err := RunCascaded(f.runner(), f.pg, f.pl, sumProgram{}, stB, Options{LocalPropagation: true, LocalCombination: true}, iters, nil)
	if err != nil {
		t.Fatal(err)
	}
	for v := range plain.Values {
		if plain.Values[v] != casc.Values[v] {
			t.Fatalf("cascaded changed result at %d: %d vs %d", v, casc.Values[v], plain.Values[v])
		}
	}
}

func TestCascadedSavesDisk(t *testing.T) {
	f := newFixture(t, 2000, 2, 9)
	ci := AnalyzeCascade(f.pg)
	if ci.VkRatio(1) == 0 {
		t.Skip("no cascade-eligible vertices in fixture")
	}
	iters := 6
	opt := Options{LocalPropagation: true, LocalCombination: true}
	stA := NewState[int64](f.pg, sumProgram{})
	_, plain, err := RunIterations(f.runner(), f.pg, f.pl, sumProgram{}, stA, opt, iters)
	if err != nil {
		t.Fatal(err)
	}
	stB := NewState[int64](f.pg, sumProgram{})
	_, casc, err := RunCascaded(f.runner(), f.pg, f.pl, sumProgram{}, stB, opt, iters, ci)
	if err != nil {
		t.Fatal(err)
	}
	if ci.MinDiameter > 1 && casc.DiskBytes >= plain.DiskBytes {
		t.Fatalf("cascading did not save disk: %d vs %d", casc.DiskBytes, plain.DiskBytes)
	}
	if casc.NetworkBytes != plain.NetworkBytes {
		t.Fatalf("cascading changed network traffic: %d vs %d", casc.NetworkBytes, plain.NetworkBytes)
	}
}

// TestPlanRejectsNegativeIterations: a negative iteration count is an error
// naming it. PlanIterations used to panic allocating its job list, and
// RunIterations to return its input state as if it had run.
func TestPlanRejectsNegativeIterations(t *testing.T) {
	f := newFixture(t, 200, 1, 1)
	st := NewState[int64](f.pg, sumProgram{})
	if _, _, err := PlanIterations(nil, f.pg, f.pl, sumProgram{}, st, Options{}, -1, "p"); err == nil || !strings.Contains(err.Error(), "iteration count -1") {
		t.Errorf("PlanIterations: err = %v, want one naming the iteration count", err)
	}
	if _, _, err := RunIterations(f.runner(), f.pg, f.pl, sumProgram{}, st, Options{}, -1); err == nil || !strings.Contains(err.Error(), "iteration count -1") {
		t.Errorf("RunIterations: err = %v, want one naming the iteration count", err)
	}
}

// TestCascadeRejectsZeroMinDiameter: phases of d_min < 1 iterations do not
// exist. RunCascaded used to divide by it.
func TestCascadeRejectsZeroMinDiameter(t *testing.T) {
	f := newFixture(t, 200, 1, 1)
	ci := AnalyzeCascade(f.pg)
	ci.MinDiameter = 0
	_, _, err := RunCascaded(f.runner(), f.pg, f.pl, sumProgram{}, NewState[int64](f.pg, sumProgram{}), Options{}, 3, ci)
	if err == nil || !strings.Contains(err.Error(), "CascadeInfo.MinDiameter = 0") {
		t.Errorf("err = %v, want one naming CascadeInfo.MinDiameter", err)
	}
}

// TestCascadeRejectsDepthLength: a CascadeInfo analysed for another graph is
// refused. RunCascaded used to index past the skip set it built.
func TestCascadeRejectsDepthLength(t *testing.T) {
	f := newFixture(t, 200, 1, 1)
	ci := &CascadeInfo{Depth: make([]int, f.pg.G.NumVertices()+1), MinDiameter: 2}
	_, _, err := RunCascaded(f.runner(), f.pg, f.pl, sumProgram{}, NewState[int64](f.pg, sumProgram{}), Options{}, 3, ci)
	if err == nil || !strings.Contains(err.Error(), "CascadeInfo.Depth has 201 entries") {
		t.Errorf("err = %v, want one naming CascadeInfo.Depth", err)
	}
}

// TestTaskNames: the task names sliced out of one buffer read as fmt renders
// them, "transfer-p<i>" at i and "combine-p<i>" at P+i.
func TestTaskNames(t *testing.T) {
	for _, p := range []int{1, 64, 256} {
		names := taskNames(p)
		if len(names) != 2*p {
			t.Fatalf("P=%d: %d names, want %d", p, len(names), 2*p)
		}
		for i := 0; i < p; i++ {
			if want := fmt.Sprintf("transfer-p%d", i); names[i] != want {
				t.Fatalf("P=%d: name %d is %q, want %q", p, i, names[i], want)
			}
			if want := fmt.Sprintf("combine-p%d", i); names[p+i] != want {
				t.Fatalf("P=%d: name %d is %q, want %q", p, p+i, names[p+i], want)
			}
		}
	}
}
