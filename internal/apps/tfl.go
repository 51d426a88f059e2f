package apps

import (
	"slices"

	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/mapreduce"
	"repro/internal/partition"
	"repro/internal/propagation"
	"repro/internal/storage"
)

// TFL aggregates two-hop friend lists (Appendix D): every selected vertex
// pushes its neighbor list to each of its neighbors; each destination
// stores the distinct vertices of the received lists. TFL moves whole
// adjacency lists along edges, so it generates the paper's largest
// intermediate data volume — the workload where locality optimizations help
// the most (Table 3).
type TFL struct {
	ratio int
}

// NewTFL creates the two-hop-friends application with a 1-in-ratio sample.
func NewTFL(ratio int) *TFL { return &TFL{ratio: ratio} }

func (a *TFL) Name() string    { return "TFL" }
func (a *TFL) Iterations() int { return 1 }

type tflProgram struct {
	g     *graph.Graph
	ratio int
}

func (p *tflProgram) Init(graph.VertexID) []graph.VertexID { return nil }

func (p *tflProgram) Transfer(src graph.VertexID, _ []graph.VertexID, dst graph.VertexID, emit propagation.Emit[[]graph.VertexID]) {
	if !Selected(uint32(src), p.ratio) {
		return
	}
	emit(dst, p.g.Neighbors(src))
}

// Scatter is Transfer's one value along every out-edge of src
// (propagation.Scatterer).
func (p *tflProgram) Scatter(src graph.VertexID, _ []graph.VertexID) ([]graph.VertexID, bool) {
	if !Selected(uint32(src), p.ratio) {
		return nil, false
	}
	return p.g.Neighbors(src), true
}

func (p *tflProgram) Combine(_ graph.VertexID, _ []graph.VertexID, values [][]graph.VertexID) []graph.VertexID {
	return distinctUnion(values)
}

func (p *tflProgram) Bytes(l []graph.VertexID) int64 {
	if len(l) == 0 {
		return 0 // vertices with no two-hop list store nothing
	}
	return 4 + 4*int64(len(l))
}

func (p *tflProgram) Associative() bool { return true }

// Merge pre-unions lists headed to the same destination: distinct-union is
// associative, so local combination preserves the final result.
func (p *tflProgram) Merge(_ graph.VertexID, values [][]graph.VertexID) []graph.VertexID {
	return distinctUnion(values)
}

// distinctUnion returns the sorted set union of the given lists. Every
// input is already sorted (adjacency lists from Builder.Build, or earlier
// distinctUnion outputs), so a tournament of pairwise merges computes the
// union in O(m log k) without re-sorting the concatenation — the dominant
// cost of TFL at millions of vertices. Inputs are never modified.
func distinctUnion(lists [][]graph.VertexID) []graph.VertexID {
	cur := make([][]graph.VertexID, 0, len(lists))
	for _, l := range lists {
		if len(l) > 0 {
			cur = append(cur, l)
		}
	}
	if len(cur) == 0 {
		return nil
	}
	if len(cur) == 1 {
		// Dedupe-copy so the result never aliases a shared adjacency list.
		return slices.Compact(slices.Clone(cur[0]))
	}
	for len(cur) > 1 {
		k := 0
		for i := 0; i+1 < len(cur); i += 2 {
			cur[k] = mergeDistinct(cur[i], cur[i+1])
			k++
		}
		if len(cur)%2 == 1 {
			cur[k] = cur[len(cur)-1]
			k++
		}
		cur = cur[:k]
	}
	return cur[0]
}

// mergeDistinct merges two sorted lists into a fresh sorted list, dropping
// duplicates within and across the inputs.
func mergeDistinct(a, b []graph.VertexID) []graph.VertexID {
	out := make([]graph.VertexID, 0, len(a)+len(b))
	push := func(v graph.VertexID) {
		if len(out) == 0 || out[len(out)-1] != v {
			out = append(out, v)
		}
	}
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			push(a[i])
			i++
		case b[j] < a[i]:
			push(b[j])
			j++
		default:
			push(a[i])
			i, j = i+1, j+1
		}
	}
	for ; i < len(a); i++ {
		push(a[i])
	}
	for ; j < len(b); j++ {
		push(b[j])
	}
	return out
}

// Plan's result is each vertex's two-hop list (indexed by vertex).
func (a *TFL) Plan(pool *engine.Pool, pg *storage.PartitionedGraph, pl *partition.Placement, opt propagation.Options) (any, []*engine.Job, error) {
	prog := &tflProgram{g: pg.G, ratio: a.ratio}
	return planValues(propagation.PlanIteration(pool, pg, pl, prog, propagation.NewState[[]graph.VertexID](pg, prog), opt))
}

func (a *TFL) RunPropagation(r *engine.Runner, pg *storage.PartitionedGraph, pl *partition.Placement, opt propagation.Options) (any, engine.Metrics, error) {
	return runPropagation(a, r, pg, pl, opt)
}

// tflMR mirrors the logic under MapReduce.
type tflMR struct {
	ratio int
}

func (p *tflMR) Map(pi *storage.PartInfo, g *graph.Graph, emit func(graph.VertexID, []graph.VertexID)) {
	for _, u := range pi.Vertices {
		if !Selected(uint32(u), p.ratio) {
			continue
		}
		list := g.Neighbors(u)
		for _, v := range list {
			emit(v, list)
		}
	}
}

func (p *tflMR) Reduce(_ graph.VertexID, values [][]graph.VertexID) []graph.VertexID {
	return distinctUnion(values)
}

func (p *tflMR) PairBytes(_ graph.VertexID, l []graph.VertexID) int64 { return 8 + 4*int64(len(l)) }
func (p *tflMR) ResultBytes(l []graph.VertexID) int64                 { return 8 + 4*int64(len(l)) }

// RunMapReduce returns each vertex's two-hop list (indexed by vertex).
func (a *TFL) RunMapReduce(r *engine.Runner, pg *storage.PartitionedGraph, pl *partition.Placement) (any, engine.Metrics, error) {
	prog := &tflMR{ratio: a.ratio}
	res, m, err := mapreduce.Run[graph.VertexID, []graph.VertexID, []graph.VertexID](r, pg, pl, prog, mapreduce.Options{})
	if err != nil {
		return nil, m, err
	}
	out := make([][]graph.VertexID, pg.G.NumVertices())
	for v, l := range res {
		out[v] = l
	}
	return out, m, nil
}

// ReferenceTFL computes the pushed two-hop lists sequentially: vertex v's
// list is the distinct union of the neighbor lists of its selected
// in-neighbors.
func ReferenceTFL(g *graph.Graph, ratio int) [][]graph.VertexID {
	out := make([][]graph.VertexID, g.NumVertices())
	var acc [][][]graph.VertexID = make([][][]graph.VertexID, g.NumVertices())
	for u := 0; u < g.NumVertices(); u++ {
		if !Selected(uint32(u), ratio) {
			continue
		}
		list := g.Neighbors(graph.VertexID(u))
		for _, v := range list {
			acc[v] = append(acc[v], list)
		}
	}
	for v := range out {
		if len(acc[v]) > 0 {
			out[v] = distinctUnion(acc[v])
		}
	}
	return out
}
