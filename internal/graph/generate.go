package graph

import (
	"math/rand"
)

// RMATConfig parameterizes the recursive matrix (R-MAT) generator of
// Chakrabarti, Zhan and Faloutsos, the generator the paper cites [2] for its
// synthetic small-world workloads. Probabilities must sum to ~1.
type RMATConfig struct {
	// Scale is log2 of the number of vertices.
	Scale int
	// EdgeFactor is the average out-degree; Scale=17, EdgeFactor=16 gives
	// ~2M edges.
	EdgeFactor int
	// A, B, C are the recursive quadrant probabilities; D = 1-A-B-C.
	// The classic skewed setting is A=0.57, B=0.19, C=0.19.
	A, B, C float64
	// Seed makes generation deterministic.
	Seed int64
}

// DefaultRMAT returns the classic skewed R-MAT parameters at the given scale.
func DefaultRMAT(scale, edgeFactor int, seed int64) RMATConfig {
	return RMATConfig{Scale: scale, EdgeFactor: edgeFactor, A: 0.57, B: 0.19, C: 0.19, Seed: seed}
}

// RMAT generates a directed graph with 2^Scale vertices and roughly
// EdgeFactor * 2^Scale edges (duplicates and self-loops are removed, so the
// realized count is slightly lower). The degree distribution is power-law,
// matching large social and web graphs.
func RMAT(cfg RMATConfig) *Graph {
	n := 1 << cfg.Scale
	m := n * cfg.EdgeFactor
	rng := rand.New(rand.NewSource(cfg.Seed))
	b := NewBuilder(n).DropSelfLoops()
	for i := 0; i < m; i++ {
		u, v := rmatEdge(rng, cfg)
		b.AddEdge(u, v)
	}
	return b.Build()
}

func rmatEdge(rng *rand.Rand, cfg RMATConfig) (VertexID, VertexID) {
	var u, v int
	ab := cfg.A + cfg.B
	abc := ab + cfg.C
	for bit := cfg.Scale - 1; bit >= 0; bit-- {
		r := rng.Float64()
		switch {
		case r < cfg.A:
			// top-left quadrant: no bits set
		case r < ab:
			v |= 1 << bit
		case r < abc:
			u |= 1 << bit
		default:
			u |= 1 << bit
			v |= 1 << bit
		}
	}
	return VertexID(u), VertexID(v)
}

// SmallWorldConfig parameterizes the paper's synthetic graph recipe (§F.1):
// generate Components small graphs with small-world characteristics, then
// rewire a ratio RewireRatio of all edges to random endpoints anywhere in the
// combined graph, stitching the components into one large graph. The paper's
// default rewire ratio p_r is 5%.
type SmallWorldConfig struct {
	// Components is the number of small-world component graphs.
	Components int
	// VerticesPerComponent is the size of each component ring.
	VerticesPerComponent int
	// K is the ring-lattice half-degree: each vertex connects to its K
	// nearest successors around the ring before rewiring.
	K int
	// Beta is the Watts–Strogatz intra-component rewiring probability.
	Beta float64
	// RewireRatio is the fraction of edges redirected to uniformly random
	// vertices of the whole graph, creating the cross-component edges
	// (paper default 0.05).
	RewireRatio float64
	// Seed makes generation deterministic.
	Seed int64
}

// DefaultSmallWorld returns the paper-flavored stitched small-world
// configuration sized to roughly n vertices.
func DefaultSmallWorld(n int, seed int64) SmallWorldConfig {
	comps := 64
	if n < comps*16 {
		comps = 4
	}
	return SmallWorldConfig{
		Components:           comps,
		VerticesPerComponent: n / comps,
		K:                    8,
		Beta:                 0.1,
		RewireRatio:          0.05,
		Seed:                 seed,
	}
}

// SmallWorld generates the stitched small-world graph described by cfg.
// The result is directed: each ring edge yields one directed edge, and the
// generator adds the reverse direction with probability 0.5 to keep the
// graph strongly-connected-ish without doubling every edge.
func SmallWorld(cfg SmallWorldConfig) *Graph {
	b := NewBuilder(cfg.Components * cfg.VerticesPerComponent).DropSelfLoops()
	addSmallWorld(b, cfg)
	return b.Build()
}

// addSmallWorld emits the edges of the stitched small-world graph cfg
// describes into b, which spans its vertices.
func addSmallWorld(b *Builder, cfg SmallWorldConfig) {
	rng := rand.New(rand.NewSource(cfg.Seed))
	for c := 0; c < cfg.Components; c++ {
		base := c * cfg.VerticesPerComponent
		addWattsStrogatz(b, rng, base, cfg.VerticesPerComponent, cfg.K, cfg.Beta, b.n, cfg.RewireRatio)
	}
}

// addWattsStrogatz emits the edges of one component. An edge is first
// a ring-lattice edge, then with probability beta rewired inside the
// component, and independently with probability globalRatio redirected to a
// uniformly random vertex of the whole graph (the stitching step).
func addWattsStrogatz(b *Builder, rng *rand.Rand, base, size, k int, beta float64, total int, globalRatio float64) {
	for i := 0; i < size; i++ {
		for j := 1; j <= k; j++ {
			src := VertexID(base + i)
			dst := VertexID(base + (i+j)%size)
			if rng.Float64() < globalRatio {
				// Stitch: cross-component random edge.
				dst = VertexID(rng.Intn(total))
			} else if rng.Float64() < beta {
				dst = VertexID(base + rng.Intn(size))
			}
			b.AddEdge(src, dst)
			if rng.Float64() < 0.5 {
				b.AddEdge(dst, src)
			}
		}
	}
}

// SocialConfig parameterizes the hybrid social-network generator: a
// stitched small-world base (community structure, like the paper's §F.1
// synthetic recipe) overlaid with a sparse R-MAT layer (power-law hubs,
// like real social graphs such as the MSN snapshot). Communities give graph
// partitioning its locality; hubs give TFL/TC/NR their heavy intermediate
// data.
type SocialConfig struct {
	SmallWorld SmallWorldConfig
	// HubEdgeFactor is the average out-degree of the R-MAT overlay.
	HubEdgeFactor int
	Seed          int64
}

// DefaultSocial sizes the hybrid generator to roughly n vertices (rounded
// down to a power of two for the R-MAT overlay).
func DefaultSocial(n int, seed int64) SocialConfig {
	sw := DefaultSmallWorld(n, seed)
	return SocialConfig{SmallWorld: sw, HubEdgeFactor: 3, Seed: seed}
}

// Social generates the hybrid social graph: the union of a stitched
// small-world graph and an R-MAT overlay on the same vertex set, built once:
// the small-world edges go into the overlay's builder as they are drawn.
func Social(cfg SocialConfig) *Graph {
	n := cfg.SmallWorld.Components * cfg.SmallWorld.VerticesPerComponent
	scale := 0
	for (1 << (scale + 1)) <= n {
		scale++
	}
	b := NewBuilder(n).DropSelfLoops()
	addSmallWorld(b, cfg.SmallWorld)
	rng := rand.New(rand.NewSource(cfg.Seed + 0x5F5E1))
	rcfg := DefaultRMAT(scale, cfg.HubEdgeFactor, cfg.Seed)
	m := (1 << scale) * cfg.HubEdgeFactor
	for i := 0; i < m; i++ {
		u, v := rmatEdge(rng, rcfg)
		if u != v {
			b.AddEdge(u, v)
		}
	}
	return b.Build()
}

// Uniform generates an Erdős–Rényi-style directed graph with n vertices and
// approximately m edges; duplicates and self-loops are removed. Used as an
// unstructured control in partition-quality experiments.
func Uniform(n int, m int, seed int64) *Graph {
	rng := rand.New(rand.NewSource(seed))
	b := NewBuilder(n).DropSelfLoops()
	for i := 0; i < m; i++ {
		b.AddEdge(VertexID(rng.Intn(n)), VertexID(rng.Intn(n)))
	}
	return b.Build()
}

// Ring generates a directed cycle of n vertices (v -> v+1 mod n). Useful in
// tests: every bisection of a ring cuts exactly two undirected edges.
func Ring(n int) *Graph {
	b := NewBuilder(n)
	for i := 0; i < n; i++ {
		b.AddEdge(VertexID(i), VertexID((i+1)%n))
	}
	return b.Build()
}

// Grid generates a directed 2D grid of rows x cols vertices with edges to the
// right and down neighbor. Grids have predictable cut structure for tests.
func Grid(rows, cols int) *Graph {
	n := rows * cols
	b := NewBuilder(n)
	id := func(r, c int) VertexID { return VertexID(r*cols + c) }
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			if c+1 < cols {
				b.AddEdge(id(r, c), id(r, c+1))
			}
			if r+1 < rows {
				b.AddEdge(id(r, c), id(r+1, c))
			}
		}
	}
	return b.Build()
}
