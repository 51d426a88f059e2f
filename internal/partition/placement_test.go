package partition

import (
	"testing"

	"repro/internal/cluster"
	"repro/internal/graph"
)

func testGraph(seed int64) *graph.Graph {
	return graph.SmallWorld(graph.DefaultSmallWorld(2000, seed))
}

func TestBandwidthAwareBasics(t *testing.T) {
	g := testGraph(1)
	topo := cluster.NewT2(cluster.T2Config{Machines: 8, Pods: 2, Levels: 1})
	res := BandwidthAware(g, topo, 4, Options{Seed: 1}) // 16 partitions, 8 machines
	if err := res.Partitioning.Validate(); err != nil {
		t.Fatal(err)
	}
	if err := res.Placement.Validate(topo); err != nil {
		t.Fatal(err)
	}
	if err := res.Sketch.Validate(res.Partitioning); err != nil {
		t.Fatal(err)
	}
	if len(res.Placement.MachineOf) != 16 {
		t.Fatalf("placement covers %d partitions", len(res.Placement.MachineOf))
	}
}

func TestBandwidthAwareSiblingsSharePods(t *testing.T) {
	// P3: sketch-sibling partitions must land in the same pod (they have
	// the most mutual cross edges).
	g := testGraph(2)
	topo := cluster.NewT2(cluster.T2Config{Machines: 8, Pods: 2, Levels: 1})
	res := BandwidthAware(g, topo, 4, Options{Seed: 2})
	pl := res.Placement
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
	res := BandwidthAware(g, topo, 3, Options{Seed: 3})
	firstPod := topo.Pod(res.Placement.MachineOf[0])
	for p := 0; p < 4; p++ {
		if topo.Pod(res.Placement.MachineOf[p]) != firstPod {
			t.Fatalf("partition %d escaped its pod", p)
		}
	}
	for p := 4; p < 8; p++ {
		if topo.Pod(res.Placement.MachineOf[p]) == firstPod {
			t.Fatalf("partition %d in wrong pod", p)
		}
	}
}

func TestBandwidthAwareMoreLevelsThanMachines(t *testing.T) {
	// 4 machines, 16 partitions: each machine locally produces 4 leaves.
	g := testGraph(4)
	topo := cluster.NewT1(4)
	res := BandwidthAware(g, topo, 4, Options{Seed: 4})
	if err := res.Placement.Validate(topo); err != nil {
		t.Fatal(err)
	}
	// Count partitions per machine: must be exactly 4 each (balanced).
	count := map[cluster.MachineID]int{}
	for _, m := range res.Placement.MachineOf {
		count[m]++
	}
	for m, c := range count {
		if c != 4 {
			t.Fatalf("machine %d stores %d partitions, want 4", m, c)
		}
	}
	// Consecutive groups of 4 partitions share a machine (sketch subtrees).
	for p := 0; p < 16; p += 4 {
		m := res.Placement.MachineOf[p]
		for q := p + 1; q < p+4; q++ {
			if res.Placement.MachineOf[q] != m {
				t.Fatalf("subtree partitions %d..%d split across machines", p, p+3)
			}
		}
	}
}

func TestBandwidthAwareRecordsSteps(t *testing.T) {
	g := testGraph(5)
	topo := cluster.NewT1(8)
	res := BandwidthAware(g, topo, 4, Options{Seed: 5})
	// Levels 0..2 distributed with 8,4,2 machines: 1+2+4 = 7 steps,
	// then 8 local steps at depth 3 (machine sets of size 1 finishing
	// the last level locally).
	if len(res.Steps) != 15 {
		t.Fatalf("steps = %d, want 15", len(res.Steps))
	}
	locals := 0
	for _, s := range res.Steps {
		if s.Local {
			locals++
			if len(s.Machines) != 1 {
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
	// (8 >= 2^2) neither policy may charge a step there, and both charge
	// the same 1+2 bisections.
	g := testGraph(15)
	topo := cluster.NewT1(8)
	for name, res := range map[string]*Result{
		"BandwidthAware": BandwidthAware(g, topo, 2, Options{Seed: 15}),
		"ParMetisLike":   ParMetisLike(g, topo, 2, Options{Seed: 15}),
	} {
		if len(res.Steps) != 3 {
			t.Errorf("%s: %d steps, want 3", name, len(res.Steps))
		}
		for _, s := range res.Steps {
			if s.Depth >= 2 {
				t.Errorf("%s: step at depth %d of a 2-level sketch", name, s.Depth)
			}
		}
	}
}

func TestParMetisLikeBasics(t *testing.T) {
	g := testGraph(6)
	topo := cluster.NewT2(cluster.T2Config{Machines: 8, Pods: 2, Levels: 1})
	res := ParMetisLike(g, topo, 4, Options{Seed: 6})
	if err := res.Partitioning.Validate(); err != nil {
		t.Fatal(err)
	}
	if err := res.Placement.Validate(topo); err != nil {
		t.Fatal(err)
	}
	if len(res.Steps) == 0 {
		t.Fatal("no cost steps recorded")
	}
}

func TestParMetisSameCutQualityAsBA(t *testing.T) {
	// Both use the same bisection kernel, so cut quality should be close;
	// the experiments isolate placement, not cut quality.
	g := testGraph(7)
	topo := cluster.NewT1(8)
	ba := BandwidthAware(g, topo, 3, Options{Seed: 7})
	pm := ParMetisLike(g, topo, 3, Options{Seed: 7})
	ierBA := InnerEdgeRatio(g, ba.Partitioning)
	ierPM := InnerEdgeRatio(g, pm.Partitioning)
	if diff := ierBA - ierPM; diff > 0.1 || diff < -0.1 {
		t.Fatalf("cut quality diverged: BA=%.3f PM=%.3f", ierBA, ierPM)
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
	cm := DefaultCostModel()
	for _, levels := range []int{4, 2} {
		ba := BandwidthAware(g, topo, levels, Options{Seed: 9})
		pm := ParMetisLike(g, topo, levels, Options{Seed: 9})
		tBA := cm.PartitioningTime(ba, topo, false)
		tPM := cm.PartitioningTime(pm, topo, true)
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
	cm := DefaultCostModel()
	ba := BandwidthAware(g, topo, 4, Options{Seed: 10})
	pm := ParMetisLike(g, topo, 4, Options{Seed: 10})
	tBA := cm.PartitioningTime(ba, topo, false)
	tPM := cm.PartitioningTime(pm, topo, true)
	if tPM < tBA*1.2 {
		t.Fatalf("bandwidth-aware not winning on T2: BA=%.3fs PM=%.3fs", tBA, tPM)
	}
}

func TestEncodingRoundTrip(t *testing.T) {
	g := testGraph(11)
	pt, _ := RecursiveBisect(g, 3, Options{Seed: 11})
	e := NewEncoding(pt)
	if err := e.Validate(); err != nil {
		t.Fatal(err)
	}
	for v := 0; v < g.NumVertices(); v++ {
		if e.ToOld(e.ToNew(graph.VertexID(v))) != graph.VertexID(v) {
			t.Fatalf("encoding not a bijection at %d", v)
		}
	}
}

func TestEncodingPartOf(t *testing.T) {
	g := testGraph(12)
	pt, _ := RecursiveBisect(g, 3, Options{Seed: 12})
	e := NewEncoding(pt)
	for v := 0; v < g.NumVertices(); v++ {
		old := graph.VertexID(v)
		if e.PartOf(e.ToNew(old)) != pt.Assign[old] {
			t.Fatalf("PartOf mismatch at %d", v)
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
