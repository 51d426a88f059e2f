package partition

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/cluster"
	"repro/internal/graph"
)

// Layer benchmarks of the bisection kernel (ROADMAP 2a). The kernel
// benchmarks run one phase on the root work graph of the 65k social graph;
// BenchmarkRecursiveBisect runs the whole partitioner at the sizes of the
// benchmark/ workloads and of the scale trajectory (1M is skipped under
// -short), and BenchmarkSketchWalk prices the machine side over a finished
// 65k bisection. ci.sh runs them all once, with -short; EXPERIMENTS.md reads
// the per-phase table off their CPU profiles.

var benchGraphs = map[int]*graph.Graph{} // by vertex count

func benchSocial(n int) *graph.Graph {
	if benchGraphs[n] == nil {
		benchGraphs[n] = graph.Social(graph.DefaultSocial(n, 42))
	}
	return benchGraphs[n]
}

// benchRoot is the root work graph of the 65k social graph.
func benchRoot() (*graph.Graph, *wgraph, *wscratch) {
	und := benchSocial(1 << 16).Undirected()
	w, sc := testWorkGraph(und, allVertices(und.NumVertices()))
	return und, w, sc
}

var benchSink int

func BenchmarkRecursiveBisect(b *testing.B) {
	for _, n := range []int{1 << 16, 1 << 18, 1 << 20} {
		b.Run(fmt.Sprintf("%dk", n>>10), func(b *testing.B) {
			if n > 1<<18 && testing.Short() {
				b.Skip("1M vertices: skipped under -short")
			}
			g := benchSocial(n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				pt, _ := RecursiveBisect(g, 6, Options{Seed: 42})
				benchSink += pt.P
			}
		})
	}
}

// BenchmarkSketchWalk is what one more topology costs once the bisection is
// shared: over a finished bisection of the 65k social graph, Algorithm 4's
// placement on T2(32,4) and the cost model's two walks with the node sizes
// their steps need (Table 1's price of one topology).
func BenchmarkSketchWalk(b *testing.B) {
	g := benchSocial(1 << 16)
	_, sk := RecursiveBisect(g, 6, Options{Seed: 42})
	topo := cluster.NewT2(cluster.T2Config{Machines: 32, Pods: 4, Levels: 1})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pl := SketchPlacement(sk, topo)
		aware, baseline := PartitioningTime(g, sk, topo, 43)
		benchSink += pl.NumPartitions() + int(aware+baseline)
	}
}

func BenchmarkNewWorkGraph(b *testing.B) {
	und, _, sc := benchRoot()
	all := allVertices(und.NumVertices())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w := newWorkGraph(und, all, sc)
		benchSink += w.n()
	}
}

func BenchmarkHeavyEdgeMatching(b *testing.B) {
	_, w, sc := benchRoot()
	rng := rand.New(rand.NewSource(42))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := sc.marks()
		_, cn := w.heavyEdgeMatching(rng, sc)
		benchSink += cn
		sc.release(m)
	}
}

func BenchmarkContract(b *testing.B) {
	_, w, sc := benchRoot()
	match, cn := w.heavyEdgeMatching(rand.New(rand.NewSource(42)), sc)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m, e := sc.marks(), sc.edges.mark()
		c := w.contract(match, cn, sc)
		benchSink += c.n()
		sc.release(m)
		sc.edges.release(e)
	}
}

func BenchmarkRefine(b *testing.B) {
	_, w, sc := benchRoot()
	// Refinement of a projected bisection: what every uncoarsening step does.
	match, cn := w.heavyEdgeMatching(rand.New(rand.NewSource(42)), sc)
	c := w.contract(match, cn, sc)
	coarse := bisectWork(&c, rand.New(rand.NewSource(42)), sc)
	start := project(coarse, match, sc)
	side := make([]uint8, len(start))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(side, start)
		refine(w, side, sc)
	}
}
