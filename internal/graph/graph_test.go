package graph

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func TestEmptyGraph(t *testing.T) {
	g := NewBuilder(0).Build()
	if g.NumVertices() != 0 || g.NumEdges() != 0 {
		t.Fatalf("empty graph has V=%d E=%d", g.NumVertices(), g.NumEdges())
	}
}

func TestBuilderBasic(t *testing.T) {
	b := NewBuilder(4)
	b.AddEdge(0, 1)
	b.AddEdge(0, 2)
	b.AddEdge(2, 3)
	b.AddEdge(3, 0)
	g := b.Build()
	if g.NumVertices() != 4 {
		t.Fatalf("NumVertices = %d, want 4", g.NumVertices())
	}
	if g.NumEdges() != 4 {
		t.Fatalf("NumEdges = %d, want 4", g.NumEdges())
	}
	if got := g.Neighbors(0); len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Errorf("Neighbors(0) = %v, want [1 2]", got)
	}
	if g.OutDegree(1) != 0 {
		t.Errorf("OutDegree(1) = %d, want 0", g.OutDegree(1))
	}
	if !g.HasEdge(2, 3) || g.HasEdge(3, 2) {
		t.Errorf("HasEdge wrong: HasEdge(2,3)=%v HasEdge(3,2)=%v", g.HasEdge(2, 3), g.HasEdge(3, 2))
	}
}

func TestBuilderSortsNeighbors(t *testing.T) {
	b := NewBuilder(5)
	b.AddEdge(0, 4)
	b.AddEdge(0, 1)
	b.AddEdge(0, 3)
	b.AddEdge(0, 2)
	g := b.Build()
	ns := g.Neighbors(0)
	for i := 1; i < len(ns); i++ {
		if ns[i-1] >= ns[i] {
			t.Fatalf("neighbors not strictly sorted: %v", ns)
		}
	}
}

func TestBuilderDedup(t *testing.T) {
	b := NewBuilder(3)
	for i := 0; i < 5; i++ {
		b.AddEdge(0, 1)
	}
	b.AddEdge(0, 2)
	g := b.Build()
	if g.NumEdges() != 2 {
		t.Fatalf("dedup failed: %d edges, want 2", g.NumEdges())
	}
}

func TestBuilderKeepDuplicates(t *testing.T) {
	b := NewBuilder(2).KeepDuplicates()
	b.AddEdge(0, 1)
	b.AddEdge(0, 1)
	g := b.Build()
	if g.NumEdges() != 2 {
		t.Fatalf("KeepDuplicates dropped edges: %d, want 2", g.NumEdges())
	}
}

func TestBuilderDropSelfLoops(t *testing.T) {
	b := NewBuilder(2).DropSelfLoops()
	b.AddEdge(0, 0)
	b.AddEdge(0, 1)
	b.AddEdge(1, 1)
	g := b.Build()
	if g.NumEdges() != 1 || !g.HasEdge(0, 1) {
		t.Fatalf("self loops not dropped: E=%d", g.NumEdges())
	}
}

func TestBuilderPanicsOnOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on out-of-range endpoint")
		}
	}()
	NewBuilder(2).AddEdge(0, 5)
}

func TestBuilderReset(t *testing.T) {
	b := NewBuilder(2)
	b.AddEdge(0, 1)
	b.Reset()
	if g := b.Build(); g.NumEdges() != 0 {
		t.Fatalf("Reset did not clear edges: %d", g.NumEdges())
	}
}

func TestReverseSmall(t *testing.T) {
	g := FromEdges(3, [][2]VertexID{{0, 1}, {0, 2}, {1, 2}})
	r := g.Reverse()
	if !r.HasEdge(1, 0) || !r.HasEdge(2, 0) || !r.HasEdge(2, 1) {
		t.Fatalf("Reverse missing edges")
	}
	if r.NumEdges() != 3 {
		t.Fatalf("Reverse edge count = %d, want 3", r.NumEdges())
	}
}

func TestReverseTwiceIsIdentity(t *testing.T) {
	g := RMAT(DefaultRMAT(8, 4, 1))
	rr := g.Reverse().Reverse()
	if !g.Equal(rr) {
		t.Fatal("Reverse(Reverse(g)) != g")
	}
}

func TestReversePreservesEdgeCount(t *testing.T) {
	g := SmallWorld(DefaultSmallWorld(1000, 7))
	if g.Reverse().NumEdges() != g.NumEdges() {
		t.Fatal("reverse changed edge count")
	}
}

func TestUndirectedSymmetric(t *testing.T) {
	g := RMAT(DefaultRMAT(7, 4, 2))
	u := g.Undirected()
	u.ForEachEdge(func(a, b VertexID) bool {
		if !u.HasEdge(b, a) {
			t.Fatalf("undirected missing reverse of (%d,%d)", a, b)
		}
		if a == b {
			t.Fatalf("undirected kept self loop at %d", a)
		}
		return true
	})
}

// refUndirected is the Builder-based symmetric closure Undirected replaced:
// add both directions of every non-loop edge, sort and deduplicate.
func refUndirected(g *Graph) *Graph {
	b := NewBuilder(g.NumVertices())
	g.ForEachEdge(func(u, v VertexID) bool {
		if u != v {
			b.AddEdge(u, v)
			b.AddEdge(v, u)
		}
		return true
	})
	return b.Build()
}

// TestQuickUndirectedMatchesReference: the merge of the two transposes equals
// the sort-and-deduplicate reference, also on graphs a file could hold but no
// Builder makes — unsorted adjacency with self-loops and repeated edges. With
// sorted set, every row is sorted and holds a self-loop and a repeat: a
// graph that takes the one-transpose path although no Builder made it.
func TestQuickUndirectedMatchesReference(t *testing.T) {
	f := func(seed int64, nPick uint8, mPick uint16, sorted bool) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(nPick)
		offsets := make([]int64, n+1)
		var targets []VertexID
		for v := 0; v < n; v++ {
			row := len(targets)
			for d := rng.Intn(1 + int(mPick)%12); d > 0; d-- {
				targets = append(targets, VertexID(rng.Intn(n)))
			}
			if sorted {
				u := VertexID(rng.Intn(n))
				targets = append(targets, VertexID(v), u, u)
				slices.Sort(targets[row:])
			}
			offsets[v+1] = int64(len(targets))
		}
		g := NewFromCSR(offsets, targets)
		return g.Undirected().Equal(refUndirected(g))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
	for _, g := range []*Graph{{}, Ring(1), Social(DefaultSocial(2048, 5)), RMAT(DefaultRMAT(9, 6, 4))} {
		if !g.Undirected().Equal(refUndirected(g)) {
			t.Fatalf("Undirected differs from the reference on %v", g)
		}
	}
}

func TestInDegreesMatchReverse(t *testing.T) {
	g := RMAT(DefaultRMAT(7, 3, 3))
	in := g.InDegrees()
	r := g.Reverse()
	for v := 0; v < g.NumVertices(); v++ {
		if in[v] != r.OutDegree(VertexID(v)) {
			t.Fatalf("in-degree mismatch at %d: %d vs %d", v, in[v], r.OutDegree(VertexID(v)))
		}
	}
}

func TestForEachEdgeEarlyStop(t *testing.T) {
	g := Ring(10)
	count := 0
	g.ForEachEdge(func(u, v VertexID) bool {
		count++
		return count < 3
	})
	if count != 3 {
		t.Fatalf("early stop failed: visited %d", count)
	}
}

func TestNewFromCSRValidation(t *testing.T) {
	cases := []struct {
		name    string
		offsets []int64
		targets []VertexID
	}{
		{"empty offsets", nil, nil},
		{"nonzero start", []int64{1, 2}, []VertexID{0}},
		{"decreasing", []int64{0, 2, 1}, []VertexID{0}},
		{"tail mismatch", []int64{0, 1}, []VertexID{0, 1}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			NewFromCSR(tc.offsets, tc.targets)
		})
	}
}

func TestSizeBytes(t *testing.T) {
	g := Ring(10)
	want := int64(10*8 + 10*4)
	if g.SizeBytes() != want {
		t.Fatalf("SizeBytes = %d, want %d", g.SizeBytes(), want)
	}
}

func TestMaxOutDegree(t *testing.T) {
	g := FromEdges(4, [][2]VertexID{{0, 1}, {0, 2}, {0, 3}, {1, 2}})
	if g.MaxOutDegree() != 3 {
		t.Fatalf("MaxOutDegree = %d, want 3", g.MaxOutDegree())
	}
}

func TestEqual(t *testing.T) {
	a := Ring(5)
	b := Ring(5)
	c := Ring(6)
	if !a.Equal(b) {
		t.Error("identical rings not Equal")
	}
	if a.Equal(c) {
		t.Error("different rings Equal")
	}
	d := FromEdges(5, [][2]VertexID{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 1}})
	if a.Equal(d) {
		t.Error("different edges Equal")
	}
}

var benchSink int64

// BenchmarkUndirected runs the 65k Social graph as built (sorted rows, one
// transpose) and with every row reversed (the two-transpose path a file
// with unsorted rows takes).
func BenchmarkUndirected(b *testing.B) {
	g := Social(DefaultSocial(1<<16, 42))
	targets := slices.Clone(g.targets)
	for v := range g.NumVertices() {
		slices.Reverse(targets[g.offsets[v]:g.offsets[v+1]])
	}
	unsorted := NewFromCSR(g.offsets, targets)
	for _, c := range []struct {
		name string
		g    *Graph
	}{{"sorted", g}, {"unsorted", unsorted}} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				benchSink += c.g.Undirected().NumEdges()
			}
		})
	}
}
