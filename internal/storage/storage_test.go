package storage

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/graph"
	"repro/internal/partition"
)

func buildPG(t *testing.T, g *graph.Graph, levels int, seed int64) *PartitionedGraph {
	t.Helper()
	pt, _ := partition.RecursiveBisect(g, levels, partition.Options{Seed: seed})
	pg, err := Build(g, pt)
	if err != nil {
		t.Fatal(err)
	}
	if err := pg.Validate(); err != nil {
		t.Fatal(err)
	}
	return pg
}

func TestBuildSmall(t *testing.T) {
	// 4 vertices, hand partitioning: {0,1} and {2,3}.
	g := graph.FromEdges(4, [][2]graph.VertexID{{0, 1}, {1, 2}, {2, 3}, {3, 0}, {0, 2}})
	pt := &partition.Partitioning{Assign: []partition.PartID{0, 0, 1, 1}, P: 2}
	pg, err := Build(g, pt)
	if err != nil {
		t.Fatal(err)
	}
	p0, p1 := pg.Parts[0], pg.Parts[1]
	if p0.InnerEdges != 1 { // 0->1
		t.Errorf("p0 inner = %d, want 1", p0.InnerEdges)
	}
	if p0.CrossOut != 2 { // 1->2, 0->2
		t.Errorf("p0 crossOut = %d, want 2", p0.CrossOut)
	}
	if p0.CrossIn != 1 { // 3->0
		t.Errorf("p0 crossIn = %d, want 1", p0.CrossIn)
	}
	if p1.InnerEdges != 1 || p1.CrossOut != 1 || p1.CrossIn != 2 {
		t.Errorf("p1 stats = %d/%d/%d", p1.InnerEdges, p1.CrossOut, p1.CrossIn)
	}
	// Boundary: in p0 both 0 and 1 touch cross edges; p0 has no inner vertex.
	if p0.BoundaryCount != 2 || p0.InnerVertices != 0 {
		t.Errorf("p0 boundary = %d inner = %d", p0.BoundaryCount, p0.InnerVertices)
	}
	// CrossDst of p0 maps vertex 2 -> partition 1.
	if pid, ok := p0.CrossDstPart(2); !ok || pid != 1 {
		t.Errorf("p0 CrossDstPart(2) = %d (%v)", pid, ok)
	}
	if pid, ok := p0.CrossDstPart(0); ok {
		t.Errorf("p0 CrossDstPart(0) = %d, want no entry", pid)
	}
	// OutPerPart: p0 -> p1 has 2 edges, 1 distinct destination (vertex 2).
	st := p0.OutPerPart[1]
	if st == nil || st.Edges != 2 || st.DistinctDst != 1 {
		t.Errorf("p0 OutPerPart[1] = %+v", st)
	}
}

func TestBuildRejectsMismatch(t *testing.T) {
	g := graph.Ring(4)
	pt := &partition.Partitioning{Assign: []partition.PartID{0, 0}, P: 1}
	if _, err := Build(g, pt); err == nil {
		t.Fatal("expected size-mismatch error")
	}
}

func TestBuildRejectsInvalidPartitioning(t *testing.T) {
	g := graph.Ring(2)
	pt := &partition.Partitioning{Assign: []partition.PartID{0, 7}, P: 2}
	if _, err := Build(g, pt); err == nil {
		t.Fatal("expected validation error")
	}
}

func TestBuildInvariantsOnSynthetic(t *testing.T) {
	g := graph.SmallWorld(graph.DefaultSmallWorld(3000, 1))
	pg := buildPG(t, g, 3, 1)
	// Sum of per-partition inner + cross must be |E| (checked by Validate);
	// also cross totals must match partition.CrossEdges.
	if pg.TotalCrossEdges() != partition.CrossEdges(g, pg.Part) {
		t.Fatal("cross edge totals disagree")
	}
	// Inner vertex ratio must be meaningful on a partitioned small-world
	// graph: most vertices should be inner at P=8.
	var inner, total int64
	for _, pi := range pg.Parts {
		inner += pi.InnerVertices
		total += int64(len(pi.Vertices))
	}
	if float64(inner)/float64(total) < 0.3 {
		t.Fatalf("inner vertex ratio %.2f suspiciously low", float64(inner)/float64(total))
	}
}

func TestInnerVertexConsistency(t *testing.T) {
	g := graph.SmallWorld(graph.DefaultSmallWorld(1000, 2))
	pg := buildPG(t, g, 2, 2)
	// Independently verify: a vertex is inner iff no incident edge crosses.
	for _, pi := range pg.Parts {
		for _, v := range pi.Vertices {
			crosses := false
			for _, nb := range g.Neighbors(v) {
				if pg.Part.Assign[nb] != pi.ID {
					crosses = true
				}
			}
			// Incoming edges: scan reverse graph lazily via full check.
			if !crosses {
				g.ForEachEdge(func(u, w graph.VertexID) bool {
					if w == v && pg.Part.Assign[u] != pi.ID {
						crosses = true
						return false
					}
					return true
				})
			}
			if crosses != pi.IsBoundary(v) {
				t.Fatalf("vertex %d: crosses=%v boundary=%v", v, crosses, pi.IsBoundary(v))
			}
		}
	}
}

func TestPartitionFileRoundTrip(t *testing.T) {
	g := graph.SmallWorld(graph.DefaultSmallWorld(500, 3))
	pg := buildPG(t, g, 2, 3)
	for _, pi := range pg.Parts {
		var buf bytes.Buffer
		if err := WritePartition(&buf, g, pi); err != nil {
			t.Fatal(err)
		}
		pd, err := ReadPartition(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if pd.ID != pi.ID || len(pd.Vertices) != len(pi.Vertices) {
			t.Fatalf("partition %d: decoded header mismatch", pi.ID)
		}
		for i, v := range pd.Vertices {
			if v != pi.Vertices[i] {
				t.Fatalf("vertex order mismatch at %d", i)
			}
			want := g.Neighbors(v)
			got := pd.Adjacency[i]
			if len(want) != len(got) {
				t.Fatalf("degree mismatch for %d", v)
			}
			for j := range want {
				if want[j] != got[j] {
					t.Fatalf("neighbor mismatch for %d", v)
				}
			}
		}
	}
}

func TestReadPartitionRejectsGarbage(t *testing.T) {
	if _, err := ReadPartition(bytes.NewReader([]byte("garbage data here"))); err == nil {
		t.Fatal("expected error")
	}
}

func TestPlaceReplicas(t *testing.T) {
	topo := cluster.NewT2(cluster.T2Config{Machines: 8, Pods: 2, Levels: 1})
	pl := partition.RandomPlacement(16, topo, 1)
	r := PlaceReplicas(pl, topo, 1)
	if err := r.Validate(topo); err != nil {
		t.Fatal(err)
	}
	for p := 0; p < 16; p++ {
		ms := r.Machines[p]
		if len(ms) != ReplicationFactor {
			t.Fatalf("partition %d has %d replicas", p, len(ms))
		}
		if ms[0] != pl.MachineOf[p] {
			t.Fatalf("primary mismatch for %d", p)
		}
		// Replica 2 same pod, replica 3 other pod (topology permits both).
		if !topo.SamePod(ms[0], ms[1]) {
			t.Errorf("partition %d: replica 2 not in primary pod", p)
		}
		if topo.SamePod(ms[0], ms[2]) {
			t.Errorf("partition %d: replica 3 in primary pod", p)
		}
	}
}

func TestPlaceReplicasTinyCluster(t *testing.T) {
	topo := cluster.NewT1(2)
	pl := partition.RandomPlacement(4, topo, 2)
	r := PlaceReplicas(pl, topo, 2)
	if err := r.Validate(topo); err != nil {
		t.Fatal(err)
	}
	for p := 0; p < 4; p++ {
		if len(r.Machines[p]) != 2 {
			t.Fatalf("partition %d: got %d replicas on a 2-machine cluster", p, len(r.Machines[p]))
		}
	}
}

func TestFailover(t *testing.T) {
	topo := cluster.NewT1(4)
	pl := partition.RandomPlacement(2, topo, 3)
	r := PlaceReplicas(pl, topo, 3)
	p := partition.PartID(0)
	primary := r.Primary(p)
	m, err := r.Failover(p, func(m cluster.MachineID) bool { return m == primary })
	if err != nil {
		t.Fatal(err)
	}
	if m == primary {
		t.Fatal("failover returned dead primary")
	}
	// Kill everything: must error.
	if _, err := r.Failover(p, func(cluster.MachineID) bool { return true }); err == nil {
		t.Fatal("expected failover error with all machines dead")
	}
}

func TestFailoverReplicaExhaustionNamesPartition(t *testing.T) {
	r := &Replicas{Machines: [][]cluster.MachineID{
		{0, 1, 2},
		{1, 2, 3},
	}}
	dead := func(m cluster.MachineID) bool { return m != 0 }
	// Partition 0 still has machine 0: failover succeeds.
	if m, err := r.Failover(0, dead); err != nil || m != 0 {
		t.Fatalf("partition 0 failover = %d, %v", m, err)
	}
	// Partition 1 lost every holder: the error must name it.
	_, err := r.Failover(1, dead)
	if err == nil {
		t.Fatal("expected replica-exhaustion error")
	}
	if !strings.Contains(err.Error(), "partition 1") {
		t.Fatalf("error %q does not name partition 1", err)
	}
	if !strings.Contains(err.Error(), "3 replicas") {
		t.Fatalf("error %q does not state the replica count", err)
	}
}

func TestFailoverFunc(t *testing.T) {
	r := &Replicas{Machines: [][]cluster.MachineID{{2, 0, 1}}}
	excl := func(bad ...cluster.MachineID) func(cluster.MachineID) bool {
		return func(m cluster.MachineID) bool {
			for _, b := range bad {
				if m == b {
					return true
				}
			}
			return false
		}
	}
	if m, err := r.Failover(0, excl()); err != nil || m != 2 {
		t.Fatalf("no exclusions: %d, %v", m, err)
	}
	// Replica order, not ID order: excluding the primary lands on the next
	// listed holder.
	if m, err := r.Failover(0, excl(2)); err != nil || m != 0 {
		t.Fatalf("primary excluded: %d, %v", m, err)
	}
	if _, err := r.Failover(0, excl(0, 1, 2)); err == nil {
		t.Fatal("all replicas excluded should error")
	}
}

func TestMigrationTarget(t *testing.T) {
	r := &Replicas{Machines: [][]cluster.MachineID{{3, 1, 2}}}
	avail := func(ok ...cluster.MachineID) func(cluster.MachineID) bool {
		return func(m cluster.MachineID) bool {
			for _, o := range ok {
				if m == o {
					return true
				}
			}
			return false
		}
	}
	// Lowest-ID available replica holder wins (the copy is already local).
	if m, err := r.MigrationTarget(0, 4, avail(1, 2, 3)); err != nil || m != 1 {
		t.Fatalf("replica holders available: %d, %v", m, err)
	}
	if m, err := r.MigrationTarget(0, 4, avail(2, 3)); err != nil || m != 2 {
		t.Fatalf("subset available: %d, %v", m, err)
	}
	// With no replica holder available, fall back to the lowest-ID available
	// machine overall.
	if m, err := r.MigrationTarget(0, 4, avail(0)); err != nil || m != 0 {
		t.Fatalf("fallback: %d, %v", m, err)
	}
	if _, err := r.MigrationTarget(0, 4, avail()); err == nil {
		t.Fatal("no available machine should error")
	}
}

func TestPartBytesIndexedByPartID(t *testing.T) {
	g := graph.FromEdges(8, [][2]graph.VertexID{
		{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}, {5, 6}, {6, 7}, {7, 0},
	})
	pt, _ := partition.RecursiveBisect(g, 2, partition.Options{Seed: 1})
	pg, err := Build(g, pt)
	if err != nil {
		t.Fatal(err)
	}
	pb := pg.PartBytes()
	if len(pb) != len(pg.Parts) {
		t.Fatalf("len = %d, want %d", len(pb), len(pg.Parts))
	}
	var sum int64
	for p, b := range pb {
		if b != pg.Parts[p].Bytes {
			t.Fatalf("partition %d: %d != %d", p, b, pg.Parts[p].Bytes)
		}
		sum += b
	}
	if sum != pg.Bytes() {
		t.Fatalf("sum %d != total %d", sum, pg.Bytes())
	}
}
