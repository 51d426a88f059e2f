package partition

import (
	"testing"

	"repro/internal/cluster"
	"repro/internal/graph"
)

func testGraph(seed int64) *graph.Graph {
	return graph.SmallWorld(graph.DefaultSmallWorld(2000, seed))
}

// bandwidthAware is Algorithm 4 end to end: one bisection, then its sketch
// placement on topo.
func bandwidthAware(g *graph.Graph, topo *cluster.Topology, levels int, seed int64) (*Partitioning, *Sketch, *Placement) {
	pt, sk := RecursiveBisect(g, levels, Options{Seed: seed})
	return pt, sk, SketchPlacement(sk, topo)
}

func TestBandwidthAwareBasics(t *testing.T) {
	g := testGraph(1)
	topo := cluster.NewT2(cluster.T2Config{Machines: 8, Pods: 2, Levels: 1})
	pt, sk, pl := bandwidthAware(g, topo, 4, 1) // 16 partitions, 8 machines
	if err := pt.Validate(); err != nil {
		t.Fatal(err)
	}
	if err := pl.Validate(topo); err != nil {
		t.Fatal(err)
	}
	if err := sk.Validate(pt); err != nil {
		t.Fatal(err)
	}
	if len(pl.MachineOf) != 16 {
		t.Fatalf("placement covers %d partitions", len(pl.MachineOf))
	}
}

func TestBandwidthAwareSiblingsSharePods(t *testing.T) {
	// P3: sketch-sibling partitions must land in the same pod (they have
	// the most mutual cross edges).
	g := testGraph(2)
	topo := cluster.NewT2(cluster.T2Config{Machines: 8, Pods: 2, Levels: 1})
	_, _, pl := bandwidthAware(g, topo, 4, 2)
	for p := 0; p < 16; p += 2 {
		a, b := pl.MachineOf[p], pl.MachineOf[p+1]
		if !topo.SamePod(a, b) {
			t.Fatalf("sibling partitions %d,%d on different pods (machines %d,%d)", p, p+1, a, b)
		}
	}
}

func TestBandwidthAwareTopSplitMatchesPods(t *testing.T) {
	// The first machine bisection separates the pods, so partitions
	// 0..P/2-1 all live in one pod and the rest in the other.
	g := testGraph(3)
	topo := cluster.NewT2(cluster.T2Config{Machines: 8, Pods: 2, Levels: 1})
	_, _, pl := bandwidthAware(g, topo, 3, 3)
	firstPod := topo.Pod(pl.MachineOf[0])
	for p := 0; p < 4; p++ {
		if topo.Pod(pl.MachineOf[p]) != firstPod {
			t.Fatalf("partition %d escaped its pod", p)
		}
	}
	for p := 4; p < 8; p++ {
		if topo.Pod(pl.MachineOf[p]) == firstPod {
			t.Fatalf("partition %d in wrong pod", p)
		}
	}
}

func TestBandwidthAwareMoreLevelsThanMachines(t *testing.T) {
	// 4 machines, 16 partitions: each machine locally produces 4 leaves.
	g := testGraph(4)
	topo := cluster.NewT1(4)
	_, _, pl := bandwidthAware(g, topo, 4, 4)
	if err := pl.Validate(topo); err != nil {
		t.Fatal(err)
	}
	// Count partitions per machine: must be exactly 4 each (balanced).
	count := map[cluster.MachineID]int{}
	for _, m := range pl.MachineOf {
		count[m]++
	}
	for m, c := range count {
		if c != 4 {
			t.Fatalf("machine %d stores %d partitions, want 4", m, c)
		}
	}
	// Consecutive groups of 4 partitions share a machine (sketch subtrees).
	for p := 0; p < 16; p += 4 {
		m := pl.MachineOf[p]
		for q := p + 1; q < p+4; q++ {
			if pl.MachineOf[q] != m {
				t.Fatalf("subtree partitions %d..%d split across machines", p, p+3)
			}
		}
	}
}

func TestBandwidthAwareRecordsSteps(t *testing.T) {
	g := testGraph(5)
	topo := cluster.NewT1(8)
	_, sk := RecursiveBisect(g, 4, Options{Seed: 5})
	_, steps := sk.walk(topo, (*cluster.MachineGraph).Bisect)
	// Levels 0..2 distributed with 8,4,2 machines: 1+2+4 = 7 steps,
	// then 8 local steps at depth 3 (machine sets of size 1 finishing
	// the last level locally).
	if len(steps) != 15 {
		t.Fatalf("steps = %d, want 15", len(steps))
	}
	locals := 0
	for _, s := range steps {
		if s.local {
			locals++
			if len(s.machines) != 1 {
				t.Fatal("local step with multiple machines")
			}
		}
	}
	if locals != 8 {
		t.Fatalf("local steps = %d, want 8", locals)
	}
}

func TestNoStepAtLeafDepth(t *testing.T) {
	// A leaf is stored, not bisected: with machines to spare at the leaves
	// (8 >= 2^2) neither walk may charge a step there, and both charge the
	// same 1+2 bisections.
	g := testGraph(15)
	topo := cluster.NewT1(8)
	_, sk := RecursiveBisect(g, 2, Options{Seed: 15})
	for name, split := range map[string]func(*cluster.MachineGraph) (a, b *cluster.MachineGraph){
		"bandwidth-aware": (*cluster.MachineGraph).Bisect,
		"baseline":        randomHalves(16),
	} {
		_, steps := sk.walk(topo, split)
		if len(steps) != 3 {
			t.Errorf("%s: %d steps, want 3", name, len(steps))
		}
		for _, s := range steps {
			if s.depth >= 2 {
				t.Errorf("%s: step at depth %d of a 2-level sketch", name, s.depth)
			}
		}
	}
}

func TestParMetisLikeBasics(t *testing.T) {
	// The baseline stores the bisection by a balanced random placement and
	// processes it on random machine halves.
	g := testGraph(6)
	topo := cluster.NewT2(cluster.T2Config{Machines: 8, Pods: 2, Levels: 1})
	pt, sk := RecursiveBisect(g, 4, Options{Seed: 6})
	if err := RandomPlacement(pt.P, topo, 7).Validate(topo); err != nil {
		t.Fatal(err)
	}
	pl, steps := sk.walk(topo, randomHalves(7))
	if err := pl.Validate(topo); err != nil {
		t.Fatal(err)
	}
	if len(steps) == 0 {
		t.Fatal("no cost steps recorded")
	}
}

func TestSketchPlacementMatchesBandwidthAware(t *testing.T) {
	// Deriving a placement from an existing sketch must also co-locate
	// sketch siblings within pods.
	g := testGraph(8)
	topo := cluster.NewT2(cluster.T2Config{Machines: 8, Pods: 2, Levels: 1})
	_, sk := RecursiveBisect(g, 4, Options{Seed: 8})
	pl := SketchPlacement(sk, topo)
	if err := pl.Validate(topo); err != nil {
		t.Fatal(err)
	}
	for p := 0; p < 16; p += 2 {
		if !topo.SamePod(pl.MachineOf[p], pl.MachineOf[p+1]) {
			t.Fatalf("sketch placement split siblings %d,%d", p, p+1)
		}
	}
}

func TestPartitioningTimeT1Equal(t *testing.T) {
	// On T1 every machine pair has the same bandwidth, so bandwidth-aware
	// and ParMetis-like partitioning should cost about the same (Table 1).
	// Levels 2 leaves two machines per leaf: a step charged there would
	// inflate the baseline alone.
	g := testGraph(9)
	topo := cluster.NewT1(8)
	for _, levels := range []int{4, 2} {
		_, sk := RecursiveBisect(g, levels, Options{Seed: 9})
		tBA, tPM := PartitioningTime(g, sk, topo, 10)
		if tBA <= 0 || tPM <= 0 {
			t.Fatalf("levels %d: non-positive times %g %g", levels, tBA, tPM)
		}
		ratio := tPM / tBA
		if ratio < 1.0 || ratio > 1.1 {
			t.Fatalf("levels %d: T1 ratio = %.2f, want within 10%% of 1 (staging only)", levels, ratio)
		}
	}
}

func TestPartitioningTimeBandwidthAwareWinsOnT2(t *testing.T) {
	// Table 1's headline: on tree topologies the bandwidth-aware algorithm
	// is substantially faster than the oblivious baseline.
	g := testGraph(10)
	topo := cluster.NewT2(cluster.T2Config{Machines: 8, Pods: 2, Levels: 1})
	_, sk := RecursiveBisect(g, 4, Options{Seed: 10})
	tBA, tPM := PartitioningTime(g, sk, topo, 11)
	if tPM < tBA*1.2 {
		t.Fatalf("bandwidth-aware not winning on T2: BA=%.3fs PM=%.3fs", tBA, tPM)
	}
}

// TestEncodingRoundTrip: ToNew is one-to-one onto [0, n), so inverting it
// by hand recovers every original ID.
func TestEncodingRoundTrip(t *testing.T) {
	g := testGraph(11)
	pt, _ := RecursiveBisect(g, 3, Options{Seed: 11})
	e := NewEncoding(pt)
	n := g.NumVertices()
	toOld := make([]graph.VertexID, n)
	seen := make([]bool, n)
	for v := 0; v < n; v++ {
		nw := e.ToNew(graph.VertexID(v))
		if int(nw) >= n || seen[nw] {
			t.Fatalf("encoding not a bijection at %d", v)
		}
		seen[nw] = true
		toOld[nw] = graph.VertexID(v)
	}
	for v := 0; v < n; v++ {
		if toOld[e.ToNew(graph.VertexID(v))] != graph.VertexID(v) {
			t.Fatalf("encoding not a bijection at %d", v)
		}
	}
}

// TestEncodingPartOf: every encoded ID falls in the Range of its vertex's
// partition.
func TestEncodingPartOf(t *testing.T) {
	g := testGraph(12)
	pt, _ := RecursiveBisect(g, 3, Options{Seed: 12})
	e := NewEncoding(pt)
	for v := 0; v < g.NumVertices(); v++ {
		old := graph.VertexID(v)
		lo, hi := e.Range(pt.Assign[old])
		if nw := e.ToNew(old); nw < lo || nw >= hi {
			t.Fatalf("encoded %d of vertex %d outside partition %d's range [%d,%d)", nw, v, pt.Assign[old], lo, hi)
		}
	}
}

func TestEncodingRanges(t *testing.T) {
	g := testGraph(13)
	pt, _ := RecursiveBisect(g, 2, Options{Seed: 13})
	e := NewEncoding(pt)
	sizes := pt.Sizes()
	var cum graph.VertexID
	for p := 0; p < pt.P; p++ {
		lo, hi := e.Range(PartID(p))
		if lo != cum || hi-lo != graph.VertexID(sizes[p]) {
			t.Fatalf("range of %d = [%d,%d), want [%d,%d)", p, lo, hi, cum, cum+graph.VertexID(sizes[p]))
		}
		cum = hi
	}
}
