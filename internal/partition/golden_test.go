package partition

import (
	"crypto/sha256"
	"encoding/binary"
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/graph"
)

var update = flag.Bool("update", false, "rewrite golden files")

// digestResult hashes everything a partitioner decides: the assignment,
// every sketch leaf in order, and (where there is one) the placement.
func digestResult(pt *Partitioning, sk *Sketch, pl *Placement) string {
	h := sha256.New()
	var b [8]byte
	put := func(x uint64) {
		binary.LittleEndian.PutUint64(b[:], x)
		h.Write(b[:])
	}
	put(uint64(pt.P))
	for _, p := range pt.Assign {
		put(uint64(p))
	}
	for leaf := 0; leaf < sk.NumPartitions(); leaf++ {
		set := sk.Node(sk.Levels(), leaf)
		put(uint64(len(set)))
		for _, v := range set {
			put(uint64(v))
		}
	}
	if pl != nil {
		for _, m := range pl.MachineOf {
			put(uint64(m))
		}
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// digestSteps hashes the cost-model steps Table 1 is computed from — depth,
// subgraph size, machine set in order, locality — of the walk split makes of
// sk on topo, and appends their modelled elapsed time secs.
func digestSteps(g *graph.Graph, sk *Sketch, topo *cluster.Topology, split func(*cluster.MachineGraph) (a, b *cluster.MachineGraph), secs float64) string {
	h := sha256.New()
	var b [8]byte
	put := func(x uint64) {
		binary.LittleEndian.PutUint64(b[:], x)
		h.Write(b[:])
	}
	vertices, edges := sk.nodeSizes(g)
	_, steps := sk.walk(topo, split)
	for _, s := range steps {
		put(uint64(s.depth))
		put(uint64(vertices[s.node]))
		put(uint64(edges[s.node]))
		put(uint64(len(s.machines)))
		for _, m := range s.machines {
			put(uint64(m))
		}
		if s.local {
			put(1)
		} else {
			put(0)
		}
	}
	return fmt.Sprintf("%x %.9g", h.Sum(nil), secs)
}

// bisectAtWorkers bisects g at 1, 2 and 8 workers and writes each run's
// RecursiveBisect row, so that every pool size is held to the same golden
// row (-update records the serial run's alone). It returns the serial run.
func bisectAtWorkers(got *strings.Builder, name string, g *graph.Graph, levels int, seed int64) (*Partitioning, *Sketch) {
	pt, sk := RecursiveBisect(g, levels, Options{Seed: seed, Workers: 1})
	fmt.Fprintf(got, "RecursiveBisect %s %s\n", name, digestResult(pt, sk, nil))
	for _, workers := range testRanges[1:] {
		if *update {
			break
		}
		pt, sk := RecursiveBisect(g, levels, Options{Seed: seed, Workers: workers})
		fmt.Fprintf(got, "RecursiveBisect %s %s\n", name, digestResult(pt, sk, nil))
	}
	return pt, sk
}

// TestPartitionDigestsGolden pins the bisection and both placements of it bit
// for bit: the golden was recorded with the sort-based contraction and the
// recompute-every-gain refinement, so a kernel rewrite that changes a single
// assignment, sketch leaf or placement fails here. The BandwidthAware rows are
// SketchPlacement's layout and the ParMetisLike rows RandomPlacement's with
// the bisection seed + 1; the *Steps rows (recorded on the two-recursion code,
// when each partitioner bisected for itself) pin the cost model's walks and
// their modelled time the same way. Every bisection runs at 1, 2 and 8
// workers. The 65k rows are skipped under -short.
func TestPartitionDigestsGolden(t *testing.T) {
	const path = "testdata/partition_digests.golden"
	sizes := []struct{ n, levels int }{{4096, 4}, {65536, 6}}
	topo := cluster.NewT2(cluster.T2Config{Machines: 32, Pods: 4, Levels: 1})
	var got strings.Builder
	for _, sz := range sizes {
		if sz.n > 4096 && testing.Short() && !*update {
			continue
		}
		for _, seed := range []int64{1, 42, 2010} {
			g := graph.Social(graph.DefaultSocial(sz.n, seed))
			pt, sk := bisectAtWorkers(&got, fmt.Sprintf("%d %d", sz.n, seed), g, sz.levels, seed)
			aware, baseline := PartitioningTime(g, sk, topo, seed+1)
			fmt.Fprintf(&got, "BandwidthAware %d %d %s\n", sz.n, seed, digestResult(pt, sk, SketchPlacement(sk, topo)))
			fmt.Fprintf(&got, "BandwidthAwareSteps %d %d %s\n", sz.n, seed, digestSteps(g, sk, topo, (*cluster.MachineGraph).Bisect, aware))
			fmt.Fprintf(&got, "ParMetisLike %d %d %s\n", sz.n, seed, digestResult(pt, sk, RandomPlacement(pt.P, topo, seed+1)))
			fmt.Fprintf(&got, "ParMetisLikeSteps %d %d %s\n", sz.n, seed, digestSteps(g, sk, topo, randomHalves(seed+1), baseline))
		}
	}
	// Shapes the social generator does not produce: a power-law graph, a
	// sparse graph with isolated vertices (GGGP's empty-frontier fallback), a
	// star (matching stalls, so GGGP runs on the whole graph), a mesh and a
	// small world.
	for _, c := range []struct {
		name string
		g    *graph.Graph
	}{
		{"rmat12", graph.RMAT(graph.DefaultRMAT(12, 8, 3))},
		{"sparse3000", graph.Uniform(3000, 1500, 5)},
		{"star3000", star(3000)},
		{"grid64", graph.Grid(64, 64)},
		{"smallworld5000", graph.SmallWorld(graph.DefaultSmallWorld(5000, 9))},
	} {
		bisectAtWorkers(&got, c.name+" 7", c.g, 3, 7)
	}
	if *update {
		if err := os.WriteFile(path, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	wantLines := map[string]bool{}
	for _, l := range strings.Split(strings.TrimSpace(string(want)), "\n") {
		wantLines[l] = true
	}
	for _, l := range strings.Split(strings.TrimSpace(got.String()), "\n") {
		if !wantLines[l] {
			t.Errorf("digest not in golden: %s", l)
		}
	}
}
