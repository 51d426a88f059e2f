package graph

import "testing"

func TestRMATDeterministic(t *testing.T) {
	a := RMAT(DefaultRMAT(10, 8, 42))
	b := RMAT(DefaultRMAT(10, 8, 42))
	if !a.Equal(b) {
		t.Fatal("same seed produced different graphs")
	}
	c := RMAT(DefaultRMAT(10, 8, 43))
	if a.Equal(c) {
		t.Fatal("different seeds produced identical graphs")
	}
}

func TestRMATShape(t *testing.T) {
	cfg := DefaultRMAT(12, 8, 1)
	g := RMAT(cfg)
	if g.NumVertices() != 1<<12 {
		t.Fatalf("V = %d, want %d", g.NumVertices(), 1<<12)
	}
	// Dedup removes some edges, but most should survive.
	want := int64(1<<12) * 8
	if g.NumEdges() < want/2 || g.NumEdges() > want {
		t.Fatalf("E = %d, outside [%d, %d]", g.NumEdges(), want/2, want)
	}
}

func TestRMATPowerLawIsh(t *testing.T) {
	g := RMAT(DefaultRMAT(12, 16, 5))
	// A power-law graph should have a max degree far above the average.
	avg := float64(g.NumEdges()) / float64(g.NumVertices())
	if float64(g.MaxOutDegree()) < 5*avg {
		t.Fatalf("max degree %d not skewed vs avg %.1f", g.MaxOutDegree(), avg)
	}
}

func TestSmallWorldDeterministic(t *testing.T) {
	a := SmallWorld(DefaultSmallWorld(2000, 9))
	b := SmallWorld(DefaultSmallWorld(2000, 9))
	if !a.Equal(b) {
		t.Fatal("same seed produced different graphs")
	}
}

func TestSmallWorldLocality(t *testing.T) {
	// A stitched small-world graph should keep most edges inside a
	// component: with RewireRatio 5% roughly 95% of edges stay local.
	cfg := SmallWorldConfig{
		Components: 8, VerticesPerComponent: 500,
		K: 6, Beta: 0.1, RewireRatio: 0.05, Seed: 3,
	}
	g := SmallWorld(cfg)
	local, total := 0, 0
	g.ForEachEdge(func(u, v VertexID) bool {
		total++
		if int(u)/cfg.VerticesPerComponent == int(v)/cfg.VerticesPerComponent {
			local++
		}
		return true
	})
	frac := float64(local) / float64(total)
	if frac < 0.85 {
		t.Fatalf("component locality %.2f, want >= 0.85", frac)
	}
	if frac > 0.999 {
		t.Fatalf("component locality %.3f: stitching produced no cross edges", frac)
	}
}

func TestUniformSize(t *testing.T) {
	g := Uniform(1000, 5000, 11)
	if g.NumVertices() != 1000 {
		t.Fatalf("V = %d", g.NumVertices())
	}
	if g.NumEdges() < 4500 || g.NumEdges() > 5000 {
		t.Fatalf("E = %d, want ~5000", g.NumEdges())
	}
}

func TestRing(t *testing.T) {
	g := Ring(5)
	if g.NumEdges() != 5 {
		t.Fatalf("E = %d, want 5", g.NumEdges())
	}
	for i := 0; i < 5; i++ {
		if !g.HasEdge(VertexID(i), VertexID((i+1)%5)) {
			t.Fatalf("missing ring edge %d", i)
		}
	}
}

func TestGrid(t *testing.T) {
	g := Grid(3, 4)
	if g.NumVertices() != 12 {
		t.Fatalf("V = %d, want 12", g.NumVertices())
	}
	// 3 rows of 3 right-edges + 2 rows of 4 down-edges = 9 + 8 = 17.
	if g.NumEdges() != 17 {
		t.Fatalf("E = %d, want 17", g.NumEdges())
	}
	if !g.HasEdge(0, 1) || !g.HasEdge(0, 4) {
		t.Fatal("grid edges missing")
	}
}

func TestDegreeHistogram(t *testing.T) {
	g := Ring(7)
	h := g.DegreeHistogram()
	if h[1] != 7 || len(h) != 1 {
		t.Fatalf("histogram = %v, want {1:7}", h)
	}
}

func TestBFSDistancesRing(t *testing.T) {
	g := Ring(6)
	d := g.BFSDistances(0)
	want := []int{0, 1, 2, 3, 4, 5}
	for i := range want {
		if d[i] != want[i] {
			t.Fatalf("dist[%d] = %d, want %d", i, d[i], want[i])
		}
	}
}

func TestBFSUnreachable(t *testing.T) {
	g := FromEdges(3, [][2]VertexID{{0, 1}})
	d := g.BFSDistances(0)
	if d[2] != -1 {
		t.Fatalf("unreachable vertex has dist %d", d[2])
	}
}
