package propagation

import (
	"testing"

	"repro/internal/cluster"
	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/partition"
	"repro/internal/storage"
)

// FuzzPropagationParallel fuzzes the determinism contract: a small graph is
// decoded from the fuzz input (consecutive byte pairs are edges), run through
// propagation serially and with a parallel compute pool, and the two
// executions must agree bit-for-bit on vertex values and engine metrics.
func FuzzPropagationParallel(f *testing.F) {
	f.Add([]byte{0, 1, 1, 2, 2, 0}, int64(1), uint8(3))
	f.Add([]byte{0, 0, 5, 9, 9, 5, 3, 7, 7, 3, 1, 4}, int64(42), uint8(0))
	f.Add([]byte{255, 0, 0, 255, 128, 64, 64, 128}, int64(7), uint8(2))
	f.Fuzz(func(t *testing.T, data []byte, seed int64, optPick uint8) {
		if len(data) < 2 {
			return
		}
		if len(data) > 256 {
			data = data[:256]
		}
		const n = 64
		edges := make([][2]graph.VertexID, 0, len(data)/2)
		for i := 0; i+1 < len(data); i += 2 {
			edges = append(edges, [2]graph.VertexID{
				graph.VertexID(int(data[i]) % n),
				graph.VertexID(int(data[i+1]) % n),
			})
		}
		g := graph.FromEdges(n, edges)
		pt, sk := partition.RecursiveBisect(g, 2, partition.Options{Seed: seed})
		pg, err := storage.Build(g, pt)
		if err != nil {
			t.Fatal(err)
		}
		topo := cluster.NewT1(4)
		pl := partition.SketchPlacement(sk, topo)
		prog := &weightedSum{weights: make([]int64, n)}
		for i := range prog.weights {
			prog.weights[i] = int64((int(seed) + i) % 5)
		}
		opt := Options{
			LocalPropagation: optPick&1 != 0,
			LocalCombination: optPick&2 != 0,
		}
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
				t.Fatalf("workers=%d: metrics %+v, want %+v", workers, gotM, refM)
			}
			for v := range refVals {
				if gotVals[v] != refVals[v] {
					t.Fatalf("workers=%d: vertex %d = %d, want %d", workers, v, gotVals[v], refVals[v])
				}
			}
		}
	})
}

// FuzzPlanReuse fuzzes the emission plan against the reference transfer path:
// the graph is decoded as above, and each of four iterations on one state
// chain emits under its own mask (maskProgram), so the fuzzer decides where
// an iteration repeats the last one's emission sequence, where it leaves it
// and where it emits nothing. Every iteration must agree with the reference
// on the log, the bags, the byte tables and the next state, at 1 and at 4
// workers.
func FuzzPlanReuse(f *testing.F) {
	f.Add([]byte{0, 1, 1, 2, 2, 0}, uint32(0xffff), uint32(0xffff), uint32(0xffff), uint32(0xffff), uint8(3))
	f.Add([]byte{0, 0, 5, 9, 9, 5, 3, 7, 7, 3, 1, 4}, uint32(0xffffffff), uint32(0xff0fffff), uint32(0), uint32(0xffffffff), uint8(7))
	f.Add([]byte{255, 0, 0, 255, 128, 64, 64, 128}, uint32(0x10001), uint32(0x30003), uint32(0x1), uint32(0x3), uint8(2))
	f.Fuzz(func(t *testing.T, data []byte, m0, m1, m2, m3 uint32, optPick uint8) {
		if len(data) < 2 {
			return
		}
		if len(data) > 256 {
			data = data[:256]
		}
		const n = 64
		b := graph.NewBuilder(n).KeepDuplicates()
		for i := 0; i+1 < len(data); i += 2 {
			b.AddEdge(graph.VertexID(int(data[i])%n), graph.VertexID(int(data[i+1])%n))
		}
		g := b.Build()
		pt, sk := partition.RecursiveBisect(g, 2, partition.Options{Seed: 1})
		pg, err := storage.Build(g, pt)
		if err != nil {
			t.Fatal(err)
		}
		topo := cluster.NewT2(cluster.T2Config{Machines: 4, Pods: 2, Levels: 1})
		pl := partition.SketchPlacement(sk, topo)
		order := orderProgram{n: n, virtual: int(optPick >> 3 & 3)}
		opt := Options{
			LocalPropagation: optPick&1 != 0,
			LocalCombination: optPick&2 != 0,
			VirtualVertices:  order.virtual,
		}
		for _, workers := range []int{1, 4} {
			pool := engine.NewPool(workers)
			st := NewState[int64](pg, order)
			for iter, mask := range []uint32{m0, m1, m2, m3} {
				next, ok := planStep(t, pool, pg, pl, topo, maskProgram{order, mask}, st, opt, optPick&4 != 0)
				if !ok {
					t.Fatalf("workers=%d: iteration %d under mask %#x differs from the reference", workers, iter, mask)
				}
				st = next
			}
		}
	})
}
