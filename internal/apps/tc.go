package apps

import (
	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/mapreduce"
	"repro/internal/partition"
	"repro/internal/propagation"
	"repro/internal/storage"
)

// TC counts directed triangles (u->v, u->w, v->w) among a deterministic 10%
// vertex sample (Appendix D, Algorithm 3): the transfer stage ships each
// selected source's sampled neighbor list across its edges to selected
// destinations; the combine stage intersects received lists with the
// destination's own neighbor list.
//
// TC's combine is NOT associative — merging two neighbor lists before the
// intersection would change the count — so local combination never applies
// to it; only local propagation does.
type TC struct {
	ratio int
}

// NewTC creates the triangle-counting application with a 1-in-ratio vertex
// sample.
func NewTC(ratio int) *TC { return &TC{ratio: ratio} }

func (a *TC) Name() string    { return "TC" }
func (a *TC) Iterations() int { return 1 }

// TCValue is either a transferred neighbor list (List != nil) or a vertex's
// triangle count.
type TCValue struct {
	List  []graph.VertexID
	Count int64
}

// tcSample is the graph and the 1-in-ratio vertex sample both programs and
// ReferenceTC count triangles among.
type tcSample struct {
	g     *graph.Graph
	ratio int
}

// selectedNeighbors lists v's sampled neighbors, in adjacency order.
func (p tcSample) selectedNeighbors(v graph.VertexID) []graph.VertexID {
	var out []graph.VertexID
	for _, w := range p.g.Neighbors(v) {
		if Selected(uint32(w), p.ratio) {
			out = append(out, w)
		}
	}
	return out
}

type tcProgram struct {
	propagation.NonAssociative[TCValue]
	tcSample
}

func (p *tcProgram) Init(graph.VertexID) TCValue { return TCValue{} }

func (p *tcProgram) Transfer(src graph.VertexID, _ TCValue, dst graph.VertexID, emit propagation.Emit[TCValue]) {
	if !Selected(uint32(src), p.ratio) || !Selected(uint32(dst), p.ratio) {
		return
	}
	emit(dst, TCValue{List: p.selectedNeighbors(src)})
}

func (p *tcProgram) Combine(v graph.VertexID, prev TCValue, values []TCValue) TCValue {
	count := prev.Count
	if len(values) > 0 {
		mine := p.selectedNeighbors(v)
		for _, val := range values {
			count += intersectCount(mine, val.List)
		}
	}
	return TCValue{Count: count}
}

func (p *tcProgram) Bytes(v TCValue) int64 {
	if v.List != nil {
		return 4 + 4*int64(len(v.List))
	}
	if v.Count == 0 {
		// Vertices that found no triangles store nothing.
		return 0
	}
	return 8
}

// intersectCount counts common elements of two sorted lists.
func intersectCount(a, b []graph.VertexID) int64 {
	var c int64
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			c++
			i++
			j++
		}
	}
	return c
}

// Plan's result is the total directed-triangle count over the sample.
func (a *TC) Plan(pool *engine.Pool, pg *storage.PartitionedGraph, pl *partition.Placement, opt propagation.Options) (any, []*engine.Job, error) {
	prog := &tcProgram{tcSample: tcSample{pg.G, a.ratio}}
	jobs, st, err := propagation.PlanIteration(pool, pg, pl, prog, propagation.NewState[TCValue](pg, prog), opt)
	if err != nil {
		return nil, nil, err
	}
	var total int64
	for _, v := range st.Values {
		total += v.Count
	}
	return total, jobs, nil
}

func (a *TC) RunPropagation(r *engine.Runner, pg *storage.PartitionedGraph, pl *partition.Placement, opt propagation.Options) (any, engine.Metrics, error) {
	return runPropagation(a, r, pg, pl, opt)
}

// tcMR mirrors the propagation logic under MapReduce: map ships neighbor
// lists keyed by the destination vertex, reduce intersects.
type tcMR struct {
	tcSample
}

func (p *tcMR) Map(pi *storage.PartInfo, g *graph.Graph, emit func(graph.VertexID, []graph.VertexID)) {
	for _, u := range pi.Vertices {
		if !Selected(uint32(u), p.ratio) {
			continue
		}
		list := p.selectedNeighbors(u)
		for _, v := range g.Neighbors(u) {
			if Selected(uint32(v), p.ratio) {
				emit(v, list)
			}
		}
	}
}

func (p *tcMR) Reduce(v graph.VertexID, values [][]graph.VertexID) int64 {
	mine := p.selectedNeighbors(v)
	var count int64
	for _, l := range values {
		count += intersectCount(mine, l)
	}
	return count
}

func (p *tcMR) PairBytes(_ graph.VertexID, l []graph.VertexID) int64 { return 8 + 4*int64(len(l)) }
func (p *tcMR) ResultBytes(int64) int64                              { return 12 }

// RunMapReduce returns the total triangle count.
func (a *TC) RunMapReduce(r *engine.Runner, pg *storage.PartitionedGraph, pl *partition.Placement) (any, engine.Metrics, error) {
	prog := &tcMR{tcSample{pg.G, a.ratio}}
	res, m, err := mapreduce.Run[graph.VertexID, []graph.VertexID, int64](r, pg, pl, prog, mapreduce.Options{})
	if err != nil {
		return nil, m, err
	}
	var total int64
	for _, c := range res {
		total += c
	}
	return total, m, nil
}

// ReferenceTC counts directed triangles among the sample sequentially.
func ReferenceTC(g *graph.Graph, ratio int) int64 {
	sample := tcSample{g, ratio}
	var total int64
	for u := 0; u < g.NumVertices(); u++ {
		if !Selected(uint32(u), ratio) {
			continue
		}
		nu := sample.selectedNeighbors(graph.VertexID(u))
		for _, v := range nu {
			total += intersectCount(nu, sample.selectedNeighbors(v))
		}
	}
	return total
}
