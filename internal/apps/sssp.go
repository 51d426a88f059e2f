package apps

import (
	"math"
	"slices"

	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/mapreduce"
	"repro/internal/partition"
	"repro/internal/propagation"
	"repro/internal/storage"
)

// SSSP computes single-source shortest hop distances by iterative
// relaxation — a second extension workload: unlike CC it has an asymmetric
// frontier (only vertices whose distance improved emit), exercising the
// primitive's selective-transfer path the way RS does but with a numeric
// fixpoint.
type SSSP struct {
	Source graph.VertexID
	// MaxIterations caps the relaxation rounds, with CC's meaning: reaching
	// it unconverged is an error, non-positive is the exact bound.
	MaxIterations int
}

// NewSSSP creates the shortest-paths application.
func NewSSSP(source graph.VertexID, maxIterations int) *SSSP {
	return &SSSP{Source: source, MaxIterations: maxIterations}
}

func (a *SSSP) Name() string    { return "SSSP" }
func (a *SSSP) Iterations() int { return a.MaxIterations }

// Unreachable marks vertices with no path from the source.
const Unreachable = int32(math.MaxInt32)

type ssspProgram struct {
	source graph.VertexID
}

func (p *ssspProgram) Init(v graph.VertexID) int32 {
	if v == p.source {
		return 0
	}
	return Unreachable
}

func (p *ssspProgram) Transfer(_ graph.VertexID, dist int32, dst graph.VertexID, emit propagation.Emit[int32]) {
	if dist != Unreachable {
		emit(dst, dist+1)
	}
}

// Scatter is Transfer's one value along every out-edge of a reached vertex
// (propagation.Scatterer).
func (p *ssspProgram) Scatter(_ graph.VertexID, dist int32) (int32, bool) {
	if dist == Unreachable {
		return 0, false
	}
	return dist + 1, true
}

func (p *ssspProgram) Combine(_ graph.VertexID, prev int32, values []int32) int32 {
	for _, d := range values {
		prev = min(prev, d)
	}
	return prev
}

func (p *ssspProgram) Bytes(int32) int64                            { return 4 }
func (p *ssspProgram) Associative() bool                            { return true }
func (p *ssspProgram) Merge(_ graph.VertexID, values []int32) int32 { return slices.Min(values) }

// Plan relaxes distances until fixpoint; the result is the per-vertex hop
// distances (Unreachable where no path exists).
func (a *SSSP) Plan(pool *engine.Pool, pg *storage.PartitionedGraph, pl *partition.Placement, opt propagation.Options) (any, []*engine.Job, error) {
	prog := &ssspProgram{source: a.Source}
	return planValues(propagation.PlanUntilConverged(pool, pg, pl, prog, propagation.NewState[int32](pg, prog), opt, roundCap(a.MaxIterations, pg), changeOf[int32], 0))
}

func (a *SSSP) RunPropagation(r *engine.Runner, pg *storage.PartitionedGraph, pl *partition.Placement, opt propagation.Options) (any, engine.Metrics, error) {
	return runPropagation(a, r, pg, pl, opt)
}

// ssspMR is one relaxation round under MapReduce.
type ssspMR struct {
	dists []int32
}

func (p *ssspMR) Map(pi *storage.PartInfo, g *graph.Graph, emit func(graph.VertexID, int32)) {
	for _, u := range pi.Vertices {
		if p.dists[u] == Unreachable {
			continue
		}
		for _, v := range g.Neighbors(u) {
			emit(v, p.dists[u]+1)
		}
	}
}

func (p *ssspMR) Reduce(_ graph.VertexID, values []int32) int32 { return slices.Min(values) }

func (p *ssspMR) PairBytes(graph.VertexID, int32) int64 { return 8 }
func (p *ssspMR) ResultBytes(int32) int64               { return 8 }

// CombineValues folds candidate distances map-side (min is associative).
func (p *ssspMR) CombineValues(_ graph.VertexID, values []int32) int32 { return slices.Min(values) }

// RunMapReduce iterates relaxation rounds until no distance changes.
func (a *SSSP) RunMapReduce(r *engine.Runner, pg *storage.PartitionedGraph, pl *partition.Placement) (any, engine.Metrics, error) {
	n := pg.G.NumVertices()
	dists := make([]int32, n)
	for v := range dists {
		dists[v] = Unreachable
	}
	dists[a.Source] = 0
	var total engine.Metrics
	limit := roundCap(a.MaxIterations, pg)
	for it := 0; ; it++ {
		if it == limit {
			return nil, total, errRoundCap(limit)
		}
		prog := &ssspMR{dists: dists}
		res, m, err := mapreduce.Run[graph.VertexID, int32, int32](r, pg, pl, prog, mapreduce.Options{StatePerVertexBytes: 4})
		if err != nil {
			return nil, total, err
		}
		total.Add(m)
		changed := false
		for v, d := range res {
			if d < dists[v] {
				dists[v] = d
				changed = true
			}
		}
		if !changed {
			break
		}
	}
	return dists, total, nil
}

// ReferenceSSSP computes hop distances with a BFS.
func ReferenceSSSP(g *graph.Graph, source graph.VertexID) []int32 {
	out := make([]int32, g.NumVertices())
	for v, d := range g.BFSDistances(source) {
		if d < 0 {
			out[v] = Unreachable
		} else {
			out[v] = int32(d)
		}
	}
	return out
}
