package partition

import (
	"fmt"
	"io"

	"repro/internal/graph"
)

// WriteDOT renders the partition sketch as a Graphviz digraph: one node per
// sketch node annotated with its vertex count and (at the leaf level) the
// machine holding the partition, plus dashed edges labeling the
// cross-partition edge counts between siblings. It is the textual
// equivalent of the runtime-dynamics view the Surfer GUI shows developers
// ([3], Appendix B).
func (s *Sketch) WriteDOT(w io.Writer, g *graph.Graph, pl *Placement) error {
	var err error
	p := func(format string, args ...any) {
		if err == nil {
			_, err = fmt.Fprintf(w, format, args...)
		}
	}
	vertices, edges := s.nodeSizes(g)
	p("digraph sketch {\n")
	p("  rankdir=TB;\n  node [shape=box, fontsize=10];\n")
	for d := 0; d <= s.levels; d++ {
		for idx := 0; idx < 1<<d; idx++ {
			label := fmt.Sprintf("L%d.%d\\n%d vertices", d, idx, vertices[1<<d+idx])
			if d == s.levels && pl != nil && idx < len(pl.MachineOf) {
				label += fmt.Sprintf("\\nmachine %d", pl.MachineOf[idx])
			}
			p("  n%d_%d [label=\"%s\"];\n", d, idx, label)
			if d > 0 {
				p("  n%d_%d -> n%d_%d;\n", d-1, idx/2, d, idx)
			}
		}
	}
	// Sibling cross-edge annotations at the leaf level: the edges inside
	// the parent that are inside neither leaf.
	if g != nil {
		for idx := 0; idx+1 < 1<<s.levels; idx += 2 {
			k := (1<<s.levels + idx) / 2
			c := edges[k] - edges[2*k] - edges[2*k+1]
			p("  n%d_%d -> n%d_%d [style=dashed, dir=none, label=\"%d cross\"];\n",
				s.levels, idx, s.levels, idx+1, c)
		}
	}
	p("}\n")
	return err
}
