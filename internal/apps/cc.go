package apps

import (
	"fmt"
	"slices"

	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/mapreduce"
	"repro/internal/partition"
	"repro/internal/propagation"
	"repro/internal/storage"
)

// CC computes weakly connected components by iterative label propagation —
// an extension workload beyond the paper's six, exercising the primitive on
// a fixpoint computation: every vertex adopts the minimum label it has seen,
// and labels flow both ways across each edge until nothing changes. (HADI
// [12] and PEGASUS [13], the systems the paper compares against, treat
// connected components as a core operation.)
type CC struct {
	// MaxIterations caps the label-propagation rounds; a run that reaches
	// it with labels still changing is an error. A non-positive value means
	// the exact bound (see roundCap).
	MaxIterations int
}

// roundCap resolves a fixpoint application's MaxIterations against its
// input: a non-positive value is the bound no graph exceeds, one round per
// vertex (a label or a distance crosses at most n-1 edges, and one more
// round sees nothing change).
func roundCap(maxIterations int, pg *storage.PartitionedGraph) int {
	if maxIterations <= 0 {
		return pg.G.NumVertices()
	}
	return maxIterations
}

// errRoundCap is the MapReduce drivers' form of the error
// propagation.PlanUntilConverged returns.
func errRoundCap(limit int) error {
	return fmt.Errorf("apps: values still changing after the cap of %d round(s)", limit)
}

// NewCC creates the connected-components application.
func NewCC(maxIterations int) *CC { return &CC{MaxIterations: maxIterations} }

func (a *CC) Name() string    { return "CC" }
func (a *CC) Iterations() int { return a.MaxIterations }

// ccProgram: the value is the smallest vertex ID known to be in the same
// weak component. Transfer pushes the label along each edge of the
// symmetrized graph; combine keeps the minimum of the previous label and
// the bag, so labels only ever decrease and the fixpoint is the component
// minimum.
type ccProgram struct{}

func (ccProgram) Init(v graph.VertexID) uint32 { return uint32(v) }

func (ccProgram) Transfer(_ graph.VertexID, label uint32, dst graph.VertexID, emit propagation.Emit[uint32]) {
	emit(dst, label)
}

// Scatter is Transfer's one value along every out-edge
// (propagation.Scatterer).
func (ccProgram) Scatter(_ graph.VertexID, label uint32) (uint32, bool) { return label, true }

func (ccProgram) Combine(v graph.VertexID, prev uint32, values []uint32) uint32 {
	for _, l := range values {
		prev = min(prev, l)
	}
	return prev
}

func (ccProgram) Bytes(uint32) int64                             { return 4 }
func (ccProgram) Associative() bool                              { return true }
func (ccProgram) Merge(_ graph.VertexID, values []uint32) uint32 { return slices.Min(values) }

// changeOf is the convergence delta of the fixpoint applications: one per
// vertex whose value moved this iteration.
func changeOf[V comparable](a, b V) float64 {
	if a == b {
		return 0
	}
	return 1
}

// Plan plans label propagation to convergence on the symmetrized graph; the
// result is the per-vertex component labels.
//
// Weak connectivity needs labels to flow against edge direction too, so the
// execution runs on the undirected view of the partitioned graph. The
// partitioning is inherited from the directed graph (cut structure is
// direction-blind).
func (a *CC) Plan(pool *engine.Pool, pg *storage.PartitionedGraph, pl *partition.Placement, opt propagation.Options) (any, []*engine.Job, error) {
	upg, err := undirectedView(pg)
	if err != nil {
		return nil, nil, err
	}
	prog := ccProgram{}
	return planValues(propagation.PlanUntilConverged(pool, upg, pl, prog, propagation.NewState[uint32](upg, prog), opt, roundCap(a.MaxIterations, upg), changeOf[uint32], 0))
}

func (a *CC) RunPropagation(r *engine.Runner, pg *storage.PartitionedGraph, pl *partition.Placement, opt propagation.Options) (any, engine.Metrics, error) {
	return runPropagation(a, r, pg, pl, opt)
}

// undirectedView rebuilds the partition metadata over the symmetric closure
// of the data graph, keeping the same vertex-to-partition assignment.
func undirectedView(pg *storage.PartitionedGraph) (*storage.PartitionedGraph, error) {
	return storage.Build(pg.G.Undirected(), pg.Part)
}

// ccMR is the MapReduce variant of one label-propagation round: map emits
// each vertex's label across its (undirected) edges plus to itself; reduce
// takes the min.
type ccMR struct {
	labels []uint32
}

func (p *ccMR) Map(pi *storage.PartInfo, g *graph.Graph, emit func(graph.VertexID, uint32)) {
	for _, u := range pi.Vertices {
		emit(u, p.labels[u])
		for _, v := range g.Neighbors(u) {
			emit(v, p.labels[u])
		}
	}
}

func (p *ccMR) Reduce(_ graph.VertexID, values []uint32) uint32 { return slices.Min(values) }

func (p *ccMR) PairBytes(graph.VertexID, uint32) int64 { return 8 }
func (p *ccMR) ResultBytes(uint32) int64               { return 8 }

// CombineValues folds labels map-side: min is associative.
func (p *ccMR) CombineValues(_ graph.VertexID, values []uint32) uint32 { return slices.Min(values) }

// RunMapReduce iterates MapReduce label-propagation rounds until the labels
// stop changing.
func (a *CC) RunMapReduce(r *engine.Runner, pg *storage.PartitionedGraph, pl *partition.Placement) (any, engine.Metrics, error) {
	upg, err := undirectedView(pg)
	if err != nil {
		return nil, engine.Metrics{}, err
	}
	n := upg.G.NumVertices()
	labels := make([]uint32, n)
	for v := range labels {
		labels[v] = uint32(v)
	}
	var total engine.Metrics
	limit := roundCap(a.MaxIterations, upg)
	for it := 0; ; it++ {
		if it == limit {
			return nil, total, errRoundCap(limit)
		}
		prog := &ccMR{labels: labels}
		res, m, err := mapreduce.Run[graph.VertexID, uint32, uint32](r, upg, pl, prog, mapreduce.Options{StatePerVertexBytes: 4})
		if err != nil {
			return nil, total, err
		}
		total.Add(m)
		changed := false
		next := make([]uint32, n)
		copy(next, labels)
		for v, l := range res {
			if l < next[v] {
				next[v] = l
				changed = true
			}
		}
		labels = next
		if !changed {
			break
		}
	}
	return labels, total, nil
}

// ReferenceCC computes weak components with a union-find.
func ReferenceCC(g *graph.Graph) []uint32 {
	n := g.NumVertices()
	parent := make([]int32, n)
	for i := range parent {
		parent[i] = int32(i)
	}
	var find func(int32) int32
	find = func(x int32) int32 {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	g.ForEachEdge(func(u, v graph.VertexID) bool {
		ru, rv := find(int32(u)), find(int32(v))
		if ru != rv {
			if ru < rv {
				parent[rv] = ru
			} else {
				parent[ru] = rv
			}
		}
		return true
	})
	// Normalize: label = minimum vertex ID in the component.
	min := make([]uint32, n)
	for i := range min {
		min[i] = uint32(n)
	}
	for v := 0; v < n; v++ {
		r := find(int32(v))
		if uint32(v) < min[r] {
			min[r] = uint32(v)
		}
	}
	out := make([]uint32, n)
	for v := 0; v < n; v++ {
		out[v] = min[find(int32(v))]
	}
	return out
}
