package surfer

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/apps"
)

func TestRunWorkloadAll(t *testing.T) {
	sys := buildTestSystem(t)
	opt := PropagationOptions{LocalPropagation: true, LocalCombination: true}
	for _, name := range WorkloadNames() {
		res, m, err := RunWorkload(sys, sys.NewRunner(), name, 2, opt)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res == nil {
			t.Fatalf("%s: nil result", name)
		}
		if m.ResponseSeconds <= 0 {
			t.Fatalf("%s: no time elapsed", name)
		}
	}
}

func TestRunWorkloadUnknown(t *testing.T) {
	sys := buildTestSystem(t)
	if _, _, err := RunWorkload(sys, sys.NewRunner(), "NOPE", 1, PropagationOptions{}); err == nil {
		t.Fatal("expected error for unknown workload")
	}
	if _, _, err := RunWorkloadMapReduce(sys, sys.NewRunner(), "NOPE", 1); err == nil {
		t.Fatal("expected error for unknown workload")
	}
}

func TestPageRankHelper(t *testing.T) {
	sys := buildTestSystem(t)
	ranks, _, err := PageRank(sys, sys.NewRunner(), 3, PropagationOptions{LocalPropagation: true, LocalCombination: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(ranks) != sys.Graph.NumVertices() {
		t.Fatalf("ranks = %d entries", len(ranks))
	}
	sum := 0.0
	for _, r := range ranks {
		sum += r
	}
	if sum < 0.5 || sum > 1.0+1e-9 {
		t.Fatalf("rank sum = %g", sum)
	}
}

func TestConnectedComponentsHelper(t *testing.T) {
	sys := buildTestSystem(t)
	labels, _, err := ConnectedComponents(sys, sys.NewRunner(), PropagationOptions{LocalCombination: true})
	if err != nil {
		t.Fatal(err)
	}
	// Every label must name a vertex in the same component: spot-check
	// that labels are at most the vertex ID (labels are minima).
	for v, l := range labels {
		if int(l) > v {
			t.Fatalf("label[%d] = %d exceeds vertex ID", v, l)
		}
	}
}

// TestFixpointWorkloadsConvergeOnLongDiameters: on a path and a ring of 200
// vertices a label or a distance crosses up to 199 edges, far past the thirty
// rounds the by-name table used to guess, and the run used to hand back the
// unconverged labels with no error. The cap now comes from the graph.
func TestFixpointWorkloadsConvergeOnLongDiameters(t *testing.T) {
	const n = 200
	for name, closed := range map[string]bool{"path": false, "ring": true} {
		b := NewBuilder(n)
		for v := 0; v+1 < n; v++ {
			b.AddEdge(VertexID(v), VertexID(v+1))
		}
		if closed {
			b.AddEdge(n-1, 0)
		}
		sys, err := Build(Config{Graph: b.Build(), Topology: NewT1(4), Levels: 2, Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		opt := PropagationOptions{LocalPropagation: true, LocalCombination: true}
		labels, _, err := ConnectedComponents(sys, sys.NewRunner(), opt)
		if err != nil || !reflect.DeepEqual(labels, apps.ReferenceCC(sys.Graph)) {
			t.Errorf("%s: ConnectedComponents = %v (err %v), want every vertex labelled 0", name, labels, err)
		}
		dists, _, err := RunWorkload(sys, sys.NewRunner(), WorkloadSSSP, 0, opt)
		if err != nil || !reflect.DeepEqual(dists, apps.ReferenceSSSP(sys.Graph, 0)) {
			t.Errorf("%s: SSSP = %v (err %v), want the BFS distances", name, dists, err)
		}
		// A cap the diameter exceeds is an error naming it, under either
		// primitive, not a quietly wrong answer.
		small := apps.NewCC(30)
		if _, _, err := small.RunPropagation(sys.NewRunner(), sys.PG, sys.Placement, opt); err == nil || !strings.Contains(err.Error(), "cap of 30") {
			t.Errorf("%s: CC capped at 30 rounds: err = %v, want one naming the cap", name, err)
		}
		if _, _, err := small.RunMapReduce(sys.NewRunner(), sys.PG, sys.Placement); err == nil || !strings.Contains(err.Error(), "cap of 30") {
			t.Errorf("%s: MapReduce CC capped at 30 rounds: err = %v, want one naming the cap", name, err)
		}
	}
}

func TestDegreeDistributionHelper(t *testing.T) {
	sys := buildTestSystem(t)
	hist, _, err := DegreeDistribution(sys, sys.NewRunner(), PropagationOptions{LocalCombination: true})
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	for _, c := range hist {
		total += c
	}
	if total != int64(sys.Graph.NumVertices()) {
		t.Fatalf("histogram total = %d, want %d", total, sys.Graph.NumVertices())
	}
}

func TestWorkloadMapReduceAgreesWithPropagation(t *testing.T) {
	sys := buildTestSystem(t)
	opt := PropagationOptions{LocalPropagation: true, LocalCombination: true}
	for _, name := range []string{WorkloadVDD, WorkloadNR, WorkloadCC} {
		p, _, err := RunWorkload(sys, sys.NewRunner(), name, 3, opt)
		if err != nil {
			t.Fatal(err)
		}
		m, _, err := RunWorkloadMapReduce(sys, sys.NewRunner(), name, 3)
		if err != nil {
			t.Fatal(err)
		}
		switch name {
		case WorkloadVDD:
			ph, mh := p.(map[int]int64), m.(map[int]int64)
			for k, v := range ph {
				if mh[k] != v {
					t.Fatalf("VDD mismatch at degree %d", k)
				}
			}
		case WorkloadNR:
			pr, mr := p.([]float64), m.([]float64)
			for v := range pr {
				if diff := pr[v] - mr[v]; diff > 1e-12 || diff < -1e-12 {
					t.Fatalf("NR mismatch at %d", v)
				}
			}
		case WorkloadCC:
			pl, ml := p.([]uint32), m.([]uint32)
			for v := range pl {
				if pl[v] != ml[v] {
					t.Fatalf("CC mismatch at %d", v)
				}
			}
		}
	}
}
