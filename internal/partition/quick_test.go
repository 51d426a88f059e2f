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
// random stream, so one RecursiveBisect serves every topology. The walk that
// prices Algorithm 4 places exactly as SketchPlacement does, both priced walks
// descend that one sketch, and pricing leaves the bisection as it was — on
// flat, tree and heterogeneous topologies, with fewer and with more machines
// than leaves.
func TestQuickOneRecursion(t *testing.T) {
	topos := []*cluster.Topology{
		cluster.NewT1(8),
		cluster.NewT2(cluster.T2Config{Machines: 32, Pods: 4, Levels: 1}),
		cluster.NewT2(cluster.T2Config{Machines: 6, Pods: 2, Levels: 1}),
		cluster.NewT3(16, 7),
	}
	cm := DefaultCostModel()
	f := func(seed int64, topoPick, levelPick uint8) bool {
		n := 300 + int(uint64(seed)%700)
		g := graph.Uniform(n, n*4, seed)
		topo := topos[int(topoPick)%len(topos)]
		levels := int(levelPick % 7)
		pt, sk := RecursiveBisect(g, levels, Options{Seed: seed})
		aware, awareSteps := sk.walk(topo, (*cluster.MachineGraph).Bisect)
		base, baseSteps := sk.walk(topo, randomHalves(seed+1))
		if !reflect.DeepEqual(aware, SketchPlacement(sk, topo)) || aware.Validate(topo) != nil || base.Validate(topo) != nil {
			return false
		}
		for _, steps := range [][]bisectStep{awareSteps, baseSteps} {
			seen := map[int]bool{}
			for _, s := range steps {
				if s.depth >= levels || s.node>>s.depth != 1 || seen[s.node] {
					return false
				}
				seen[s.node] = true
			}
		}
		a1, b1 := cm.PartitioningTime(g, sk, topo, seed+1)
		pt2, sk2 := RecursiveBisect(g, levels, Options{Seed: seed})
		a2, b2 := cm.PartitioningTime(g, sk2, topo, seed+1)
		return reflect.DeepEqual(pt, pt2) && reflect.DeepEqual(sk, sk2) && a1 == a2 && b1 == b2
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

// TestQuickEncodingBijection: for arbitrary partitionings, ToNew maps the
// vertices one-to-one onto [0, n), each into its partition's Range, with IDs
// ascending within a partition — the layout propagation's bags rely on.
func TestQuickEncodingBijection(t *testing.T) {
	f := func(seed int64, pPick uint8) bool {
		n := 100 + int(uint64(seed)%400)
		p := 1 + int(pPick%12)
		pt := Random(graph.Ring(n), p, seed)
		e := NewEncoding(pt)
		seen := make([]bool, n)
		last := make([]int64, p) // last encoded ID seen per partition
		for i := range last {
			last[i] = -1
		}
		for v, q := range pt.Assign {
			nw := e.ToNew(graph.VertexID(v))
			lo, hi := e.Range(q)
			if int(nw) >= n || seen[nw] || nw < lo || nw >= hi || int64(nw) <= last[q] {
				return false
			}
			seen[nw] = true
			last[q] = int64(nw)
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
		pt, _, pl := bandwidthAware(g, topo, 4, seed)
		if pt.Validate() != nil || pl.Validate(topo) != nil {
			return false
		}
		// Sibling partitions share pods.
		for p := 0; p < 16; p += 2 {
			if !topo.SamePod(pl.MachineOf[p], pl.MachineOf[p+1]) {
				return false
			}
		}
		// Per-machine partition counts balanced (16 partitions, 8
		// machines -> exactly 2 each).
		count := map[cluster.MachineID]int{}
		for _, m := range pl.MachineOf {
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
