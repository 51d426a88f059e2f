package propagation

import (
	"testing"

	"repro/internal/cluster"
	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/partition"
	"repro/internal/storage"
)

func treeFixture(t *testing.T, seed int64) (*storage.PartitionedGraph, *partition.Placement, *cluster.Topology) {
	t.Helper()
	g := graph.SmallWorld(graph.DefaultSmallWorld(2000, seed))
	pt, sk := partition.RecursiveBisect(g, 3, partition.Options{Seed: seed})
	pg, err := storage.Build(g, pt)
	if err != nil {
		t.Fatal(err)
	}
	topo := cluster.NewT2(cluster.T2Config{Machines: 8, Pods: 2, Levels: 1})
	return pg, partition.SketchPlacement(sk, topo), topo
}

func TestTreeAggregationSameResults(t *testing.T) {
	pg, pl, topo := treeFixture(t, 41)
	opt := Options{LocalPropagation: true, LocalCombination: true}
	prog := sumProgram{}

	stA := NewState[int64](pg, prog)
	plain, _, err := RunIterations(engine.New(engine.Config{Topo: topo}), pg, pl, prog, stA, opt, 3)
	if err != nil {
		t.Fatal(err)
	}
	stB := NewState[int64](pg, prog)
	tree, _, err := RunIterationsTree(engine.New(engine.Config{Topo: topo}), pg, pl, prog, stB, opt, 3)
	if err != nil {
		t.Fatal(err)
	}
	for v := range plain.Values {
		if plain.Values[v] != tree.Values[v] {
			t.Fatalf("tree aggregation changed value[%d]: %d vs %d", v, tree.Values[v], plain.Values[v])
		}
	}
}

func TestTreeAggregationCutsCrossPodTime(t *testing.T) {
	// Tree aggregation targets heavy cross-pod traffic on an
	// oversubscribed tree: spread placement (lots of cross-pod values)
	// and a slow top-level switch. With sketch placement and default
	// factors the cross-pod leg is already small and the extra stage is
	// not worth it — which TestTreeAggregationOverheadBounded covers.
	g := graph.SmallWorld(graph.DefaultSmallWorld(2000, 42))
	pt, _ := partition.RecursiveBisect(g, 3, partition.Options{Seed: 42})
	pg, err := storage.Build(g, pt)
	if err != nil {
		t.Fatal(err)
	}
	topo := cluster.NewT2(cluster.T2Config{Machines: 8, Pods: 2, Levels: 1, TopFactor: 128})
	pl := partition.RandomPlacement(pt.P, topo, 42)
	opt := Options{LocalPropagation: true, LocalCombination: true}
	prog := sumProgram{}

	stA := NewState[int64](pg, prog)
	_, plain, err := iterate(engine.New(engine.Config{Topo: topo}), pg, pl, prog, stA, opt)
	if err != nil {
		t.Fatal(err)
	}
	stB := NewState[int64](pg, prog)
	_, tree, err := RunIterationsTree(engine.New(engine.Config{Topo: topo}), pg, pl, prog, stB, opt, 1)
	if err != nil {
		t.Fatal(err)
	}
	if tree.ResponseSeconds >= plain.ResponseSeconds {
		t.Fatalf("tree aggregation not faster on oversubscribed T2: %.5f vs %.5f", tree.ResponseSeconds, plain.ResponseSeconds)
	}
}

func TestTreeAggregationOverheadBounded(t *testing.T) {
	// When cross-pod traffic is already small (sketch placement, default
	// factors), the extra stage must cost at most a modest overhead.
	pg, pl, topo := treeFixture(t, 42)
	opt := Options{LocalPropagation: true, LocalCombination: true}
	prog := sumProgram{}

	stA := NewState[int64](pg, prog)
	_, plain, err := iterate(engine.New(engine.Config{Topo: topo}), pg, pl, prog, stA, opt)
	if err != nil {
		t.Fatal(err)
	}
	stB := NewState[int64](pg, prog)
	_, tree, err := RunIterationsTree(engine.New(engine.Config{Topo: topo}), pg, pl, prog, stB, opt, 1)
	if err != nil {
		t.Fatal(err)
	}
	if tree.ResponseSeconds > 1.5*plain.ResponseSeconds {
		t.Fatalf("tree aggregation overhead too large: %.5f vs %.5f", tree.ResponseSeconds, plain.ResponseSeconds)
	}
}

func TestTreeAggregationRejectsNonAssociative(t *testing.T) {
	pg, pl, topo := treeFixture(t, 43)
	prog := listProgram{}
	st := NewState[[]int64](pg, prog)
	_, _, err := RunIterationsTree(engine.New(engine.Config{Topo: topo}), pg, pl, prog, st, Options{}, 1)
	if err == nil {
		t.Fatal("expected error for non-associative program")
	}
}

func TestTreeAggregationOnSinglePod(t *testing.T) {
	// With one pod, there is no cross-pod traffic: tree aggregation must
	// degenerate gracefully to the plain path (same results, no
	// aggregator traffic).
	g := graph.SmallWorld(graph.DefaultSmallWorld(1000, 44))
	pt, sk := partition.RecursiveBisect(g, 2, partition.Options{Seed: 44})
	pg, err := storage.Build(g, pt)
	if err != nil {
		t.Fatal(err)
	}
	topo := cluster.NewT1(4)
	pl := partition.SketchPlacement(sk, topo)
	prog := sumProgram{}

	stA := NewState[int64](pg, prog)
	_, plain, err := iterate(engine.New(engine.Config{Topo: topo}), pg, pl, prog, stA, Options{LocalPropagation: true, LocalCombination: true})
	if err != nil {
		t.Fatal(err)
	}
	stB := NewState[int64](pg, prog)
	next, tree, err := RunIterationsTree(engine.New(engine.Config{Topo: topo}), pg, pl, prog, stB, Options{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if tree.NetworkBytes != plain.NetworkBytes {
		t.Fatalf("single-pod tree network %d != plain %d", tree.NetworkBytes, plain.NetworkBytes)
	}
	want := refSum(g)
	for v := range want {
		if next.Values[v] != want[v] {
			t.Fatalf("value[%d] wrong", v)
		}
	}
}
