package partition

import (
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/cluster"
	"repro/internal/graph"
)

// TestQuickRecursiveBisectInvariants: cover, balance and sketch consistency
// hold for random graphs at random level counts.
func TestQuickRecursiveBisectInvariants(t *testing.T) {
	f := func(seed int64, levelPick uint8) bool {
		n := 200 + int(uint64(seed)%500)
		g := graph.Uniform(n, n*3, seed)
		levels := 1 + int(levelPick%4)
		pt, sk := RecursiveBisect(g, levels, Options{Seed: seed})
		if pt.Validate() != nil || sk.Validate(pt) != nil {
			return false
		}
		total := 0
		for _, s := range pt.Sizes() {
			total += s
		}
		if total != n {
			return false
		}
		// Monotonicity of level cross edges.
		prev := int64(-1)
		for d := 0; d <= sk.Levels(); d++ {
			tl := sk.LevelCrossEdges(g, d)
			if tl < prev {
				return false
			}
			prev = tl
		}
		// Balance within the kernel's documented tolerance compounded
		// per level (3% per bisection).
		return Balance(pt) < 1.5
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickOneRecursion: the machine side draws nothing from the bisection's
// random stream, so BandwidthAware is RecursiveBisect plus SketchPlacement and
// ParMetisLike partitions exactly as RecursiveBisect does — on flat, tree and
// heterogeneous topologies, with fewer and with more machines than leaves.
func TestQuickOneRecursion(t *testing.T) {
	topos := []*cluster.Topology{
		cluster.NewT1(8),
		cluster.NewT2(cluster.T2Config{Machines: 32, Pods: 4, Levels: 1}),
		cluster.NewT2(cluster.T2Config{Machines: 6, Pods: 2, Levels: 1}),
		cluster.NewT3(16, 7),
	}
	f := func(seed int64, topoPick, levelPick uint8) bool {
		n := 300 + int(uint64(seed)%700)
		g := graph.Uniform(n, n*4, seed)
		topo := topos[int(topoPick)%len(topos)]
		levels := int(levelPick % 7)
		opt := Options{Seed: seed}
		pt, sk := RecursiveBisect(g, levels, opt)
		ba := BandwidthAware(g, topo, levels, opt)
		pm := ParMetisLike(g, topo, levels, opt)
		return reflect.DeepEqual(ba.Partitioning, pt) &&
			reflect.DeepEqual(ba.Sketch, sk) &&
			reflect.DeepEqual(ba.Placement, SketchPlacement(sk, topo)) &&
			reflect.DeepEqual(pm.Partitioning, pt)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickSketchIsViewOfIDs: sketch node (d, i) is the vertices whose
// partition ID, shifted down to depth d, is i — in ascending order — and the
// one-pass node sizes agree with counting each node's set directly.
func TestQuickSketchIsViewOfIDs(t *testing.T) {
	f := func(seed int64, levelPick uint8) bool {
		n := 200 + int(uint64(seed)%500)
		g := graph.Uniform(n, n*3, seed)
		levels := int(levelPick % 6)
		pt, sk := RecursiveBisect(g, levels, Options{Seed: seed})
		vertices, edges := sk.nodeSizes(g)
		for d := 0; d <= levels; d++ {
			for i := 0; i < 1<<d; i++ {
				var want []graph.VertexID
				in := make([]bool, n)
				for v, p := range pt.Assign {
					if int(p)>>(levels-d) == i {
						want = append(want, graph.VertexID(v))
						in[v] = true
					}
				}
				var inside int64
				for _, v := range want {
					for _, nb := range g.Neighbors(v) {
						if in[nb] {
							inside++
						}
					}
				}
				k := 1<<d + i
				if !reflect.DeepEqual(sk.Node(d, i), want) || vertices[k] != len(want) || edges[k] != inside {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickEncodingBijection: consecutive-range encoding is a bijection
// with correct PartOf for arbitrary partitionings.
func TestQuickEncodingBijection(t *testing.T) {
	f := func(seed int64, pPick uint8) bool {
		n := 100 + int(uint64(seed)%400)
		p := 1 + int(pPick%12)
		g := graph.Ring(n)
		pt := Random(g, p, seed)
		e := NewEncoding(pt)
		if e.Validate() != nil {
			return false
		}
		for v := 0; v < n; v++ {
			old := graph.VertexID(v)
			nw := e.ToNew(old)
			if e.ToOld(nw) != old {
				return false
			}
			if e.PartOf(nw) != pt.Assign[old] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickBandwidthAwarePlacement: Algorithm 4 always produces a valid,
// balanced placement with sketch siblings co-located in pods on tree
// topologies.
func TestQuickBandwidthAwarePlacement(t *testing.T) {
	f := func(seed int64) bool {
		g := graph.Uniform(300, 1500, seed)
		topo := cluster.NewT2(cluster.T2Config{Machines: 8, Pods: 2, Levels: 1})
		res := BandwidthAware(g, topo, 4, Options{Seed: seed})
		if res.Partitioning.Validate() != nil || res.Placement.Validate(topo) != nil {
			return false
		}
		// Sibling partitions share pods.
		for p := 0; p < 16; p += 2 {
			if !topo.SamePod(res.Placement.MachineOf[p], res.Placement.MachineOf[p+1]) {
				return false
			}
		}
		// Per-machine partition counts balanced (16 partitions, 8
		// machines -> exactly 2 each).
		count := map[cluster.MachineID]int{}
		for _, m := range res.Placement.MachineOf {
			count[m]++
		}
		for _, c := range count {
			if c != 2 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickRandomPlacementBalanced: the balanced-random layout never puts
// more than ceil(P/N) partitions on a machine.
func TestQuickRandomPlacementBalanced(t *testing.T) {
	f := func(seed int64, pPick, nPick uint8) bool {
		p := 1 + int(pPick%64)
		n := 1 + int(nPick%16)
		topo := cluster.NewT1(n)
		pl := RandomPlacement(p, topo, seed)
		count := make([]int, n)
		for _, m := range pl.MachineOf {
			count[m]++
		}
		maxAllowed := (p + n - 1) / n
		for _, c := range count {
			if c > maxAllowed {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
