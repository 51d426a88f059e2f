package propagation

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/cluster"
	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/partition"
	"repro/internal/storage"
)

// weightedSum is a randomized associative program: each edge scales the
// source's value by a per-source weight; combine sums. Randomizing the
// weights exercises value paths beyond the constant-1 tests.
type weightedSum struct {
	weights []int64
}

func (p *weightedSum) Init(v graph.VertexID) int64 { return int64(v%97) + 1 }
func (p *weightedSum) Transfer(src graph.VertexID, val int64, dst graph.VertexID, emit Emit[int64]) {
	emit(dst, val*p.weights[src])
}
func (p *weightedSum) Combine(_ graph.VertexID, _ int64, values []int64) int64 {
	var s int64
	for _, v := range values {
		s += v
	}
	return s
}
func (p *weightedSum) Bytes(int64) int64 { return 8 }
func (p *weightedSum) Associative() bool { return true }
func (p *weightedSum) Merge(_ graph.VertexID, values []int64) int64 {
	var s int64
	for _, v := range values {
		s += v
	}
	return s
}

// TestQuickOptLevelEquivalence is the central semantics property: for
// random graphs, partitionings and programs, all four optimization levels
// and all placements produce bit-identical results across multiple
// iterations.
func TestQuickOptLevelEquivalence(t *testing.T) {
	f := func(seed int64, levelPick, iterPick uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 200 + rng.Intn(400)
		g := graph.Uniform(n, n*4, seed)
		levels := 1 + int(levelPick%3)
		iters := 1 + int(iterPick%3)
		pt, sk := partition.RecursiveBisect(g, levels, partition.Options{Seed: seed})
		pg, err := storage.Build(g, pt)
		if err != nil {
			return false
		}
		topo := cluster.NewT1(4)
		prog := &weightedSum{weights: make([]int64, n)}
		for i := range prog.weights {
			prog.weights[i] = int64(rng.Intn(5))
		}
		run := func(pl *partition.Placement, opt Options) []int64 {
			r := engine.New(engine.Config{Topo: topo})
			st := NewState[int64](pg, prog)
			st, _, err := RunIterations(r, pg, pl, prog, st, opt, iters)
			if err != nil {
				t.Fatal(err)
			}
			return st.Values
		}
		plans := []*partition.Placement{
			partition.SketchPlacement(sk, topo),
			partition.RandomPlacement(pt.P, topo, seed),
		}
		opts := []Options{
			{},
			{LocalPropagation: true},
			{LocalCombination: true},
			{LocalPropagation: true, LocalCombination: true},
		}
		ref := run(plans[0], opts[0])
		for _, pl := range plans {
			for _, opt := range opts {
				got := run(pl, opt)
				for v := range ref {
					if got[v] != ref[v] {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 12}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickParallelEquivalence is the determinism contract of the parallel
// executor: for random seeds, partition counts and topologies, running the
// same program with 1, 2 and 8 compute workers yields bit-identical vertex
// values and identical engine metrics.
func TestQuickParallelEquivalence(t *testing.T) {
	topos := func(machines int, seed int64) []*cluster.Topology {
		return []*cluster.Topology{
			cluster.NewT1(machines),
			cluster.NewT2(cluster.T2Config{Machines: machines, Pods: 2, Levels: 1}),
			cluster.NewT3(machines, seed),
		}
	}
	f := func(seed int64, levelPick, optPick uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 200 + rng.Intn(400)
		g := graph.Uniform(n, n*4, seed)
		levels := 1 + int(levelPick%3)
		pt, sk := partition.RecursiveBisect(g, levels, partition.Options{Seed: seed})
		pg, err := storage.Build(g, pt)
		if err != nil {
			return false
		}
		prog := &weightedSum{weights: make([]int64, n)}
		for i := range prog.weights {
			prog.weights[i] = int64(rng.Intn(5))
		}
		opt := Options{
			LocalPropagation: optPick&1 != 0,
			LocalCombination: optPick&2 != 0,
		}
		for _, topo := range topos(4, seed) {
			pl := partition.SketchPlacement(sk, topo)
			run := func(workers int) ([]int64, engine.Metrics) {
				r := engine.New(engine.Config{Topo: topo, Workers: workers})
				st := NewState[int64](pg, prog)
				st, m, err := RunIterations(r, pg, pl, prog, st, opt, 2)
				if err != nil {
					t.Fatal(err)
				}
				return st.Values, m
			}
			refVals, refM := run(1)
			for _, workers := range []int{2, 8} {
				gotVals, gotM := run(workers)
				if gotM != refM {
					t.Logf("metrics diverge with %d workers: %+v vs %+v", workers, gotM, refM)
					return false
				}
				for v := range refVals {
					if gotVals[v] != refVals[v] {
						t.Logf("vertex %d diverges with %d workers", v, workers)
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 8}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickCascadeEquivalence: cascading never changes results for random
// graphs and iteration counts.
func TestQuickCascadeEquivalence(t *testing.T) {
	f := func(seed int64, iterPick uint8) bool {
		n := 300
		g := graph.SmallWorld(graph.DefaultSmallWorld(n, seed))
		iters := 2 + int(iterPick%4)
		pt, sk := partition.RecursiveBisect(g, 2, partition.Options{Seed: seed})
		pg, err := storage.Build(g, pt)
		if err != nil {
			return false
		}
		topo := cluster.NewT1(2)
		pl := partition.SketchPlacement(sk, topo)
		prog := &weightedSum{weights: make([]int64, g.NumVertices())}
		rng := rand.New(rand.NewSource(seed))
		for i := range prog.weights {
			prog.weights[i] = int64(rng.Intn(3))
		}
		stA := NewState[int64](pg, prog)
		plain, _, err := RunIterations(engine.New(engine.Config{Topo: topo}), pg, pl, prog, stA, Options{}, iters)
		if err != nil {
			return false
		}
		stB := NewState[int64](pg, prog)
		casc, _, err := RunCascaded(engine.New(engine.Config{Topo: topo}), pg, pl, prog, stB, Options{}, iters, nil)
		if err != nil {
			return false
		}
		for v := range plain.Values {
			if plain.Values[v] != casc.Values[v] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickIOOrdering: the optimization levels never increase traffic when
// the placement is fixed, for random graphs.
func TestQuickIOOrdering(t *testing.T) {
	f := func(seed int64) bool {
		n := 300 + int(uint64(seed)%300)
		g := graph.Uniform(n, n*5, seed)
		pt, sk := partition.RecursiveBisect(g, 2, partition.Options{Seed: seed})
		pg, err := storage.Build(g, pt)
		if err != nil {
			return false
		}
		topo := cluster.NewT1(4)
		pl := partition.SketchPlacement(sk, topo)
		prog := &weightedSum{weights: make([]int64, g.NumVertices())}
		for i := range prog.weights {
			prog.weights[i] = 1
		}
		run := func(opt Options) engine.Metrics {
			r := engine.New(engine.Config{Topo: topo})
			st := NewState[int64](pg, prog)
			_, m, err := iterate(r, pg, pl, prog, st, opt)
			if err != nil {
				t.Fatal(err)
			}
			return m
		}
		o1 := run(Options{})
		o3 := run(Options{LocalPropagation: true, LocalCombination: true})
		return o3.NetworkBytes <= o1.NetworkBytes && o3.DiskBytes <= o1.DiskBytes
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}
