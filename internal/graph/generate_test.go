package graph

import (
	"math/rand"
	"testing"
)

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

// socialTwoBuilds is Social as it was first written, the reference its
// one-builder form is held to: the small-world graph built on its own, its
// edges re-added to a second builder beside the R-MAT overlay's.
func socialTwoBuilds(cfg SocialConfig) *Graph {
	base := SmallWorld(cfg.SmallWorld)
	n := base.NumVertices()
	scale := 0
	for (1 << (scale + 1)) <= n {
		scale++
	}
	b := NewBuilder(n).DropSelfLoops()
	base.ForEachEdge(func(u, v VertexID) bool {
		b.AddEdge(u, v)
		return true
	})
	rng := rand.New(rand.NewSource(cfg.Seed + 0x5F5E1))
	rcfg := DefaultRMAT(scale, cfg.HubEdgeFactor, cfg.Seed)
	for i := 0; i < (1<<scale)*cfg.HubEdgeFactor; i++ {
		if u, v := rmatEdge(rng, rcfg); u != v {
			b.AddEdge(u, v)
		}
	}
	return b.Build()
}

// TestSocialMatchesTwoBuilds holds Social to its reference bit for bit at
// several sizes and seeds, and at the benchmark workloads' 262k (not with
// -short).
func TestSocialMatchesTwoBuilds(t *testing.T) {
	type row struct {
		n    int
		seed int64
	}
	rows := []row{{1000, 1}, {1000, 7}, {4096, 42}, {16384, 1}, {65536, 7}, {65536, 42}}
	if !testing.Short() {
		rows = append(rows, row{262144, 7})
	}
	for _, r := range rows {
		cfg := DefaultSocial(r.n, r.seed)
		if got, want := Social(cfg), socialTwoBuilds(cfg); !got.Equal(want) {
			t.Errorf("Social(%d, seed %d): %d edges, the two-build reference %d", r.n, r.seed, got.NumEdges(), want.NumEdges())
		}
	}
}

// BenchmarkSocial is the benchmark workloads' graph generator at 262k
// vertices (16k with -short).
func BenchmarkSocial(b *testing.B) {
	n := 262144
	if testing.Short() {
		n = 16384
	}
	b.ReportAllocs()
	for b.Loop() {
		Social(DefaultSocial(n, 42))
	}
}
