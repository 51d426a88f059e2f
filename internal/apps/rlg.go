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

// RLG reverses every edge of the directed graph and stores the result as
// adjacency lists (Appendix D): vertex v's output is the sorted list of its
// in-neighbors.
type RLG struct{}

// NewRLG creates the reverse-link-graph application.
func NewRLG() *RLG { return &RLG{} }

func (a *RLG) Name() string    { return "RLG" }
func (a *RLG) Iterations() int { return 1 }

// rlgProgram: transfer sends the reversed edge (the source ID) to the
// destination; combine assembles the destination's reversed adjacency list.
type rlgProgram struct{}

func (rlgProgram) Init(graph.VertexID) []graph.VertexID { return nil }

func (rlgProgram) Transfer(src graph.VertexID, _ []graph.VertexID, dst graph.VertexID, emit propagation.Emit[[]graph.VertexID]) {
	emit(dst, []graph.VertexID{src})
}

// Scatter is Transfer's one value along every out-edge of src, built once
// per vertex instead of once per edge (propagation.Scatterer).
func (rlgProgram) Scatter(src graph.VertexID, _ []graph.VertexID) ([]graph.VertexID, bool) {
	return []graph.VertexID{src}, true
}

func (rlgProgram) Combine(_ graph.VertexID, _ []graph.VertexID, values [][]graph.VertexID) []graph.VertexID {
	// The bag's lists are concatenated into one slice allocated at its
	// exact length (nil for an empty bag, as ReferenceRLG leaves a vertex
	// with no in-edges) and sorted in place.
	out := slices.Concat(values...)
	slices.Sort(out)
	return out
}

func (rlgProgram) Bytes(l []graph.VertexID) int64 {
	if len(l) == 0 {
		return 0 // vertices with no in-edges store nothing
	}
	return 4 + 4*int64(len(l))
}

func (rlgProgram) Associative() bool { return true }

func (rlgProgram) Merge(_ graph.VertexID, values [][]graph.VertexID) []graph.VertexID {
	// A new slice at its exact length, as in Combine, never one of the
	// values' lists: Scatter sends one list along all of a source's
	// out-edges, so each may sit in many bags.
	out := slices.Concat(values...)
	slices.Sort(out)
	return out
}

// Plan's result is the reversed adjacency lists indexed by vertex.
func (a *RLG) Plan(pool *engine.Pool, pg *storage.PartitionedGraph, pl *partition.Placement, opt propagation.Options) (any, []*engine.Job, error) {
	prog := rlgProgram{}
	return planValues(propagation.PlanIteration(pool, pg, pl, prog, propagation.NewState[[]graph.VertexID](pg, prog), opt))
}

func (a *RLG) RunPropagation(r *engine.Runner, pg *storage.PartitionedGraph, pl *partition.Placement, opt propagation.Options) (any, engine.Metrics, error) {
	return runPropagation(a, r, pg, pl, opt)
}

// rlgMR: map emits (dst, src) per edge; reduce sorts the in-neighbor list.
type rlgMR struct{}

func (rlgMR) Map(pi *storage.PartInfo, g *graph.Graph, emit func(graph.VertexID, graph.VertexID)) {
	for _, u := range pi.Vertices {
		for _, v := range g.Neighbors(u) {
			emit(v, u)
		}
	}
}

func (rlgMR) Reduce(_ graph.VertexID, values []graph.VertexID) []graph.VertexID {
	// The copy is required, not defensive: values is a window into the
	// reducer's group buffer, reused for the next key (mapreduce.Program).
	out := make([]graph.VertexID, len(values))
	copy(out, values)
	slices.Sort(out)
	return out
}

func (rlgMR) PairBytes(graph.VertexID, graph.VertexID) int64 { return 8 }
func (rlgMR) ResultBytes(l []graph.VertexID) int64           { return 8 + 4*int64(len(l)) }

// RunMapReduce returns the reversed adjacency lists indexed by vertex
// (vertices with no in-edges are absent from the map and have empty lists).
func (a *RLG) RunMapReduce(r *engine.Runner, pg *storage.PartitionedGraph, pl *partition.Placement) (any, engine.Metrics, error) {
	res, m, err := mapreduce.Run[graph.VertexID, graph.VertexID, []graph.VertexID](r, pg, pl, rlgMR{}, mapreduce.Options{})
	if err != nil {
		return nil, m, err
	}
	out := make([][]graph.VertexID, pg.G.NumVertices())
	for v, l := range res {
		out[v] = l
	}
	return out, m, nil
}

// ReferenceRLG computes the reversed adjacency lists via the graph
// transpose.
func ReferenceRLG(g *graph.Graph) [][]graph.VertexID {
	rev := g.Reverse()
	out := make([][]graph.VertexID, rev.NumVertices())
	for v := 0; v < rev.NumVertices(); v++ {
		ns := rev.Neighbors(graph.VertexID(v))
		if len(ns) > 0 {
			out[v] = append([]graph.VertexID(nil), ns...)
		}
	}
	return out
}
