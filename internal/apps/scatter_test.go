package apps

import (
	"reflect"
	"testing"

	"repro/internal/cluster"
	"repro/internal/graph"
	"repro/internal/partition"
	"repro/internal/propagation"
	"repro/internal/storage"
)

// scatterAgrees checks prog's Scatter, if it has one, against its Transfer on
// every edge of pg, in the initial state and after one planned iteration:
// Transfer emits exactly one value, equal to Scatter's and to the edge's
// destination, where Scatter says ok, and nothing where it does not. It
// reports whether prog has a Scatter.
func scatterAgrees[V any](t *testing.T, name string, pg *storage.PartitionedGraph, pl *partition.Placement, prog propagation.Program[V]) bool {
	t.Helper()
	sc, ok := any(prog).(propagation.Scatterer[V])
	if !ok {
		return false
	}
	g := pg.G
	opt := propagation.Options{LocalPropagation: true, LocalCombination: true, VirtualVertices: g.MaxOutDegree() + 1}
	st := propagation.NewState(pg, prog)
	for iter := 0; iter < 2; iter++ {
		for u := range st.Values {
			src := graph.VertexID(u)
			val, send := sc.Scatter(src, st.Values[u])
			for _, dst := range g.Neighbors(src) {
				var got []V
				prog.Transfer(src, st.Values[u], dst, func(d graph.VertexID, v V) {
					if d != dst {
						t.Fatalf("%s iteration %d: Transfer on edge (%d, %d) emitted to %d", name, iter, src, dst, d)
					}
					got = append(got, v)
				})
				want := []V{val}
				if !send {
					want = nil
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s iteration %d: on edge (%d, %d) Transfer emitted %v, Scatter says (%v, %v)",
						name, iter, src, dst, got, val, send)
				}
			}
		}
		_, next, err := propagation.PlanIteration(nil, pg, pl, prog, st, opt)
		if err != nil {
			t.Fatal(err)
		}
		st = next
	}
	return true
}

// TestScatterAgreesWithTransfer holds every app program's Scatter to its
// Transfer, which stays the contract, on a 1k social graph, and pins which
// programs have one.
func TestScatterAgreesWithTransfer(t *testing.T) {
	g := graph.Social(graph.DefaultSocial(1024, 3))
	pt, sk := partition.RecursiveBisect(g, 3, partition.Options{Seed: 3})
	pg, err := storage.Build(g, pt)
	if err != nil {
		t.Fatal(err)
	}
	pl := partition.SketchPlacement(sk, cluster.NewT1(4))
	implemented := map[string]bool{
		"NR":   scatterAgrees(t, "NR", pg, pl, NRProgram(g)),
		"RLG":  scatterAgrees[[]graph.VertexID](t, "RLG", pg, pl, rlgProgram{}),
		"TFL":  scatterAgrees[[]graph.VertexID](t, "TFL", pg, pl, &tflProgram{g: g, ratio: DefaultSelectRatio}),
		"RS":   scatterAgrees[uint8](t, "RS", pg, pl, &rsProgram{cfg: DefaultRSConfig()}),
		"CC":   scatterAgrees[uint32](t, "CC", pg, pl, ccProgram{}),
		"SSSP": scatterAgrees[int32](t, "SSSP", pg, pl, &ssspProgram{source: 0}),
		"TC":   scatterAgrees[TCValue](t, "TC", pg, pl, &tcProgram{tcSample: tcSample{g, DefaultSelectRatio}}),
		"VDD":  scatterAgrees[int64](t, "VDD", pg, pl, &vddProgram{g: g}),
	}
	// TC's emission depends on the destination, and VDD sends nothing along
	// an edge: they keep Transfer alone. Every other program scatters.
	for name, has := range implemented {
		if want := name != "TC" && name != "VDD"; has != want {
			t.Errorf("%s implements propagation.Scatterer: %v, want %v", name, has, want)
		}
	}
}
