package partition

import (
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/graph"
)

func TestWriteDOT(t *testing.T) {
	g := graph.SmallWorld(graph.DefaultSmallWorld(500, 51))
	topo := cluster.NewT1(4)
	_, sk := RecursiveBisect(g, 2, Options{Seed: 51})
	pl := SketchPlacement(sk, topo)
	var sb strings.Builder
	if err := sk.WriteDOT(&sb, g, pl); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"digraph sketch", "n0_0", "n2_3", "cross", "machine"} {
		if !strings.Contains(out, want) {
			t.Errorf("DOT output missing %q", want)
		}
	}
	// 7 sketch nodes for a 2-level sketch.
	if c := strings.Count(out, "[label="); c != 7 {
		t.Errorf("node count = %d, want 7", c)
	}
	// Without graph/placement: still valid output.
	var sb2 strings.Builder
	if err := sk.WriteDOT(&sb2, nil, nil); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(sb2.String(), "cross") {
		t.Error("cross labels emitted without a graph")
	}
}
