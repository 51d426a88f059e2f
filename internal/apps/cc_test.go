package apps

import (
	"testing"

	"repro/internal/cluster"
	"repro/internal/graph"
	"repro/internal/partition"
	"repro/internal/propagation"
	"repro/internal/storage"
)

func TestCCPropagationMatchesReference(t *testing.T) {
	f := newFixture(t, 20)
	want := ReferenceCC(f.g)
	app := NewCC(40)
	for name, opt := range optLevels {
		res, _, err := app.RunPropagation(f.runner(), f.pg, f.pl, opt)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got := res.([]uint32)
		for v := range want {
			if got[v] != want[v] {
				t.Fatalf("%s: label[%d] = %d, want %d", name, v, got[v], want[v])
			}
		}
	}
}

func TestCCMapReduceMatchesReference(t *testing.T) {
	f := newFixture(t, 21)
	want := ReferenceCC(f.g)
	res, _, err := NewCC(40).RunMapReduce(f.runner(), f.pg, f.pl)
	if err != nil {
		t.Fatal(err)
	}
	got := res.([]uint32)
	for v := range want {
		if got[v] != want[v] {
			t.Fatalf("MR: label[%d] = %d, want %d", v, got[v], want[v])
		}
	}
}

func TestCCDisconnectedComponents(t *testing.T) {
	// Two separate triangles plus an isolated vertex.
	g := graph.FromEdges(7, [][2]graph.VertexID{
		{0, 1}, {1, 2}, {2, 0},
		{3, 4}, {4, 5}, {5, 3},
	})
	want := ReferenceCC(g)
	expected := []uint32{0, 0, 0, 3, 3, 3, 6}
	for v := range expected {
		if want[v] != expected[v] {
			t.Fatalf("reference label[%d] = %d, want %d", v, want[v], expected[v])
		}
	}
}

func TestCCConvergesEarly(t *testing.T) {
	// A small ring converges in about its diameter; a huge MaxIterations
	// budget must not be consumed (PlanUntilConverged stops at fixpoint).
	g := graph.Ring(32)
	f := fixtureFor(t, g, 2, 22)
	app := NewCC(1000)
	res, m, err := app.RunPropagation(f.runner(), f.pg, f.pl, propagation.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for v, l := range res.([]uint32) {
		if l != 0 {
			t.Fatalf("ring label[%d] = %d, want 0", v, l)
		}
	}
	// Each iteration runs 2 stages x P tasks; 1000 iterations would be
	// 2000*P tasks. Converging in <= 40 iterations keeps it far below.
	if m.TasksRun > 40*2*f.pg.Part.P {
		t.Fatalf("did not converge early: %d tasks", m.TasksRun)
	}
}

// fixtureFor builds a fixture around an explicit graph.
func fixtureFor(t *testing.T, g *graph.Graph, levels int, seed int64) *fixture {
	t.Helper()
	pt, sk := partition.RecursiveBisect(g, levels, partition.Options{Seed: seed})
	pg, err := storage.Build(g, pt)
	if err != nil {
		t.Fatal(err)
	}
	topo := cluster.NewT1(4)
	return &fixture{g: g, pg: pg, sk: sk, topo: topo, pl: partition.SketchPlacement(sk, topo)}
}
