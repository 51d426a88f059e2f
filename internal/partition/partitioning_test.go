package partition

import (
	"testing"
	"testing/quick"

	"repro/internal/graph"
)

func TestRecursiveBisectCover(t *testing.T) {
	g := graph.SmallWorld(graph.DefaultSmallWorld(2000, 1))
	pt, sk := RecursiveBisect(g, 3, Options{Seed: 1})
	if pt.P != 8 {
		t.Fatalf("P = %d, want 8", pt.P)
	}
	if err := pt.Validate(); err != nil {
		t.Fatal(err)
	}
	if err := sk.Validate(pt); err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, s := range pt.Sizes() {
		total += s
	}
	if total != g.NumVertices() {
		t.Fatalf("cover broken: %d of %d vertices", total, g.NumVertices())
	}
}

func TestRecursiveBisectBalance(t *testing.T) {
	g := graph.SmallWorld(graph.DefaultSmallWorld(4000, 2))
	pt, _ := RecursiveBisect(g, 4, Options{Seed: 2})
	if b := Balance(pt); b > 1.35 {
		t.Fatalf("balance = %.2f, want <= 1.35", b)
	}
}

func TestRecursiveBisectZeroLevels(t *testing.T) {
	g := graph.Ring(10)
	pt, sk := RecursiveBisect(g, 0, Options{})
	if pt.P != 1 || sk.NumPartitions() != 1 {
		t.Fatalf("P = %d", pt.P)
	}
	for _, p := range pt.Assign {
		if p != 0 {
			t.Fatal("single partition must be 0")
		}
	}
}

func TestPartitioningBeatsRandom(t *testing.T) {
	// Core quality claim behind Table 5: multilevel partitioning's inner
	// edge ratio dwarfs random partitioning's.
	g := graph.SmallWorld(graph.DefaultSmallWorld(4000, 3))
	pt, _ := RecursiveBisect(g, 4, Options{Seed: 3})
	rnd := Random(g, 16, 3)
	ierOurs := InnerEdgeRatio(g, pt)
	ierRand := InnerEdgeRatio(g, rnd)
	if ierOurs < 5*ierRand {
		t.Fatalf("ier ours=%.3f rand=%.3f: partitioning not much better than random", ierOurs, ierRand)
	}
	if ierOurs < 0.4 {
		t.Fatalf("ier = %.3f, want >= 0.4 on a small-world graph", ierOurs)
	}
}

func TestInnerVertexRatio(t *testing.T) {
	// {0,1} | {2,3}: the one cross edge 1->2 makes its source and its
	// destination boundary vertices; 0 and 3 stay inner.
	g := graph.FromEdges(4, [][2]graph.VertexID{{0, 1}, {1, 2}, {2, 3}})
	pt := &Partitioning{Assign: []PartID{0, 0, 1, 1}, P: 2}
	if r := InnerVertexRatio(g, pt); r != 0.5 {
		t.Fatalf("hand graph: ratio = %g, want 0.5", r)
	}
	// Most vertices of a bisected small-world graph are inner at P=8.
	g = graph.SmallWorld(graph.DefaultSmallWorld(3000, 1))
	pt, _ = RecursiveBisect(g, 3, Options{Seed: 1})
	if r := InnerVertexRatio(g, pt); r < 0.3 {
		t.Fatalf("small-world: ratio = %.2f, suspiciously low", r)
	}
}

func TestMonotonicity(t *testing.T) {
	// §4.1: T_l is non-decreasing with sketch level.
	g := graph.SmallWorld(graph.DefaultSmallWorld(2000, 4))
	_, sk := RecursiveBisect(g, 4, Options{Seed: 4})
	prev := int64(0)
	for d := 0; d <= sk.Levels(); d++ {
		tl := sk.LevelCrossEdges(g, d)
		if tl < prev {
			t.Fatalf("monotonicity violated at level %d: %d < %d", d, tl, prev)
		}
		prev = tl
	}
	if sk.LevelCrossEdges(g, 0) != 0 {
		t.Fatal("root level must have no cross edges")
	}
}

func TestSketchSiblingsCrossMoreThanCousins(t *testing.T) {
	// Proximity (§4.1): partitions with a lower common ancestor share more
	// cross edges than those with a higher one. Check the leaf level of a
	// 2-level sketch: C(0,1)+C(2,3) >= C(0,2)+C(1,3) etc.
	g := graph.SmallWorld(graph.DefaultSmallWorld(3000, 5))
	_, sk := RecursiveBisect(g, 2, Options{Seed: 5})
	d := 2
	c01 := sk.CrossEdges(g, d, 0, 1)
	c23 := sk.CrossEdges(g, d, 2, 3)
	c02 := sk.CrossEdges(g, d, 0, 2)
	c13 := sk.CrossEdges(g, d, 1, 3)
	c03 := sk.CrossEdges(g, d, 0, 3)
	c12 := sk.CrossEdges(g, d, 1, 2)
	sib := c01 + c23
	if sib < c02+c13 || sib < c03+c12 {
		t.Fatalf("proximity violated: sib=%d vs %d, %d", sib, c02+c13, c03+c12)
	}
}

func TestChoosePartitionCount(t *testing.T) {
	cases := []struct {
		g, r   int64
		levels int
	}{
		{100, 200, 0},
		{100, 100, 0},
		{101, 100, 1},
		{400, 100, 2},
		{401, 100, 3},
		{1 << 30, 1 << 25, 5},
	}
	for _, c := range cases {
		l, p := ChoosePartitionCount(c.g, c.r)
		if l != c.levels || p != 1<<c.levels {
			t.Errorf("ChoosePartitionCount(%d,%d) = (%d,%d), want (%d,%d)",
				c.g, c.r, l, p, c.levels, 1<<c.levels)
		}
		// Resulting partition size must fit in memory.
		if (c.g+int64(p)-1)/int64(p) > c.r {
			t.Errorf("P=%d leaves partitions over budget", p)
		}
	}
}

func TestChoosePartitionCountPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for zero memory")
		}
	}()
	ChoosePartitionCount(100, 0)
}

func TestValidateCatchesBadAssign(t *testing.T) {
	pt := &Partitioning{Assign: []PartID{0, 5}, P: 2}
	if err := pt.Validate(); err == nil {
		t.Fatal("expected validation error")
	}
}

func TestRandomPartitioningCoverProperty(t *testing.T) {
	f := func(seed int64, pPick uint8) bool {
		p := 1 + int(pPick%16)
		g := graph.Ring(100)
		pt := Random(g, p, seed)
		return pt.Validate() == nil && len(pt.Assign) == 100
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestRecursiveBisectDeterministic(t *testing.T) {
	g := graph.SmallWorld(graph.DefaultSmallWorld(1500, 8))
	a, _ := RecursiveBisect(g, 3, Options{Seed: 42})
	b, _ := RecursiveBisect(g, 3, Options{Seed: 42})
	for v := range a.Assign {
		if a.Assign[v] != b.Assign[v] {
			t.Fatal("same seed produced different partitionings")
		}
	}
}
