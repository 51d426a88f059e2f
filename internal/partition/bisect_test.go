package partition

import (
	"math/rand"
	"testing"

	"repro/internal/graph"
)

func TestBisectRingCutsTwo(t *testing.T) {
	// A ring's optimal bisection cuts exactly 2 undirected edges.
	und := graph.Ring(64).Undirected()
	all := allVertices(64)
	w, sc := testWorkGraph(und, all)
	side := bisectWork(w, rand.New(rand.NewSource(1)), sc)
	if cut := cutWeight(w, side); cut != 2 {
		t.Fatalf("ring cut = %d, want 2", cut)
	}
	if !balanced(side, 0.1) {
		t.Fatal("ring bisection unbalanced")
	}
}

func TestBisectGridCutNearOptimal(t *testing.T) {
	// A 16x16 grid's optimal bisection cuts 16 edges; accept some slack.
	und := graph.Grid(16, 16).Undirected()
	all := allVertices(256)
	w, sc := testWorkGraph(und, all)
	side := bisectWork(w, rand.New(rand.NewSource(2)), sc)
	cut := cutWeight(w, side)
	if cut > 24 {
		t.Fatalf("grid cut = %d, want <= 24", cut)
	}
	if !balanced(side, 0.1) {
		t.Fatal("grid bisection unbalanced")
	}
}

func TestBisectTwoCliques(t *testing.T) {
	// Two 20-cliques joined by one edge: optimal cut = 1.
	b := graph.NewBuilder(40)
	for c := 0; c < 2; c++ {
		base := graph.VertexID(c * 20)
		for i := 0; i < 20; i++ {
			for j := 0; j < 20; j++ {
				if i != j {
					b.AddEdge(base+graph.VertexID(i), base+graph.VertexID(j))
				}
			}
		}
	}
	b.AddEdge(0, 20)
	und := b.Build().Undirected()
	w, sc := testWorkGraph(und, allVertices(40))
	side := bisectWork(w, rand.New(rand.NewSource(3)), sc)
	if cut := cutWeight(w, side); cut != 1 {
		t.Fatalf("two-clique cut = %d, want 1", cut)
	}
}

func TestBisectSmallGraphs(t *testing.T) {
	for n := 0; n < 5; n++ {
		und := graph.Ring(max(n, 1)).Undirected()
		subset := allVertices(und.NumVertices())[:n]
		w, sc := testWorkGraph(und, subset)
		side := bisectWork(w, rand.New(rand.NewSource(4)), sc)
		if len(side) != n {
			t.Fatalf("n=%d: got %d sides", n, len(side))
		}
	}
}

func TestCoarsenPreservesVertexWeight(t *testing.T) {
	und := graph.RMAT(graph.DefaultRMAT(9, 6, 5)).Undirected()
	w, sc := testWorkGraph(und, allVertices(und.NumVertices()))
	rng := rand.New(rand.NewSource(6))
	total := w.totalVertexWeight()
	match, cn := w.heavyEdgeMatching(rng, sc)
	c := w.contract(match, cn, sc)
	if c.totalVertexWeight() != total {
		t.Fatalf("coarsening changed total vertex weight: %d -> %d", total, c.totalVertexWeight())
	}
	if c.n() >= w.n() {
		t.Fatalf("coarsening did not shrink: %d -> %d", w.n(), c.n())
	}
}

func TestCoarsenPreservesCutStructure(t *testing.T) {
	// Cut weight of a projected partition must be identical on the coarse
	// and fine graph.
	und := graph.SmallWorld(graph.DefaultSmallWorld(2000, 7)).Undirected()
	w, sc := testWorkGraph(und, allVertices(und.NumVertices()))
	rng := rand.New(rand.NewSource(8))
	match, cn := w.heavyEdgeMatching(rng, sc)
	c := w.contract(match, cn, sc)
	// Arbitrary partition of the coarse graph.
	coarseSide := make([]uint8, c.n())
	for i := range coarseSide {
		coarseSide[i] = uint8(i % 2)
	}
	fineSide := make([]uint8, w.n())
	for v := range fineSide {
		fineSide[v] = coarseSide[match[v]]
	}
	if cc, fc := cutWeight(&c, coarseSide), cutWeight(w, fineSide); cc != fc {
		t.Fatalf("cut mismatch coarse=%d fine=%d", cc, fc)
	}
}

func TestMatchingIsValid(t *testing.T) {
	und := graph.RMAT(graph.DefaultRMAT(8, 5, 9)).Undirected()
	w, sc := testWorkGraph(und, allVertices(und.NumVertices()))
	match, cn := w.heavyEdgeMatching(rand.New(rand.NewSource(10)), sc)
	counts := make([]int, cn)
	for _, m := range match {
		if m < 0 || int(m) >= cn {
			t.Fatalf("match target %d out of range", m)
		}
		counts[m]++
	}
	for cv, c := range counts {
		if c < 1 || c > 2 {
			t.Fatalf("coarse vertex %d has %d members, want 1 or 2", cv, c)
		}
	}
}

func TestRefineNeverWorsensCut(t *testing.T) {
	und := graph.SmallWorld(graph.DefaultSmallWorld(1000, 11)).Undirected()
	w, sc := testWorkGraph(und, allVertices(und.NumVertices()))
	rng := rand.New(rand.NewSource(12))
	side := make([]uint8, w.n())
	for i := range side {
		side[i] = uint8(rng.Intn(2))
	}
	before := cutWeight(w, side)
	refine(w, side, sc)
	after := cutWeight(w, side)
	if after > before {
		t.Fatalf("refinement worsened cut %d -> %d", before, after)
	}
}

// testWorkGraph builds the work graph of a subset in a scratch of its own.
func testWorkGraph(und *graph.Graph, subset []graph.VertexID) (*wgraph, *wscratch) {
	sc := newWScratch(und.NumVertices())
	w := newWorkGraph(und, subset, sc)
	return &w, sc
}

func allVertices(n int) []graph.VertexID {
	all := make([]graph.VertexID, n)
	for i := range all {
		all[i] = graph.VertexID(i)
	}
	return all
}

func balanced(side []uint8, tol float64) bool {
	n := len(side)
	c := 0
	for _, s := range side {
		if s == 0 {
			c++
		}
	}
	dev := float64(c)/float64(n) - 0.5
	if dev < 0 {
		dev = -dev
	}
	return dev <= tol
}
