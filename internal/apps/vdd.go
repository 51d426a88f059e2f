package apps

import (
	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/mapreduce"
	"repro/internal/partition"
	"repro/internal/propagation"
	"repro/internal/storage"
)

// VDD computes the vertex (out-)degree distribution. It is the paper's
// vertex-oriented counter-example: the access pattern does not match
// propagation, so the propagation implementation emulates MapReduce with
// virtual vertices — one virtual vertex per distinct degree — and performs
// about as well as MapReduce (§6.4).
type VDD struct{}

// NewVDD creates the degree-distribution application.
func NewVDD() *VDD { return &VDD{} }

func (a *VDD) Name() string    { return "VDD" }
func (a *VDD) Iterations() int { return 1 }

// vddProgram emits, once per vertex, a count of one to the virtual vertex
// whose ID encodes the vertex's degree (Appendix D: "the virtual vertex ID
// is the same as the value of the degree").
type vddProgram struct {
	g *graph.Graph
}

func (p *vddProgram) Init(graph.VertexID) int64 { return 0 }

// TransferVertex sends along the virtual edge to the degree's virtual
// vertex.
func (p *vddProgram) TransferVertex(v graph.VertexID, _ int64, emit propagation.Emit[int64]) {
	if int(v) >= p.g.NumVertices() {
		return // virtual vertices have no degree
	}
	deg := p.g.OutDegree(v)
	emit(graph.VertexID(p.g.NumVertices()+deg), 1)
}

// Transfer does nothing on real edges: VDD is vertex oriented.
func (p *vddProgram) Transfer(graph.VertexID, int64, graph.VertexID, propagation.Emit[int64]) {}

func (p *vddProgram) Combine(_ graph.VertexID, prev int64, values []int64) int64 {
	sum := prev
	for _, c := range values {
		sum += c
	}
	return sum
}

func (p *vddProgram) Bytes(int64) int64 { return 8 }

func (p *vddProgram) Associative() bool { return true }

func (p *vddProgram) Merge(_ graph.VertexID, values []int64) int64 {
	var sum int64
	for _, c := range values {
		sum += c
	}
	return sum
}

// Plan's result is the degree histogram as map[degree]count.
func (a *VDD) Plan(pool *engine.Pool, pg *storage.PartitionedGraph, pl *partition.Placement, opt propagation.Options) (any, []*engine.Job, error) {
	prog := &vddProgram{g: pg.G}
	opt.VirtualVertices = pg.G.MaxOutDegree() + 1
	jobs, st, err := propagation.PlanIteration(pool, pg, pl, prog, propagation.NewState[int64](pg, prog), opt)
	if err != nil {
		return nil, nil, err
	}
	hist := make(map[int]int64)
	n := pg.G.NumVertices()
	for vid, count := range st.Virtual {
		hist[int(vid)-n] = count
	}
	return hist, jobs, nil
}

func (a *VDD) RunPropagation(r *engine.Runner, pg *storage.PartitionedGraph, pl *partition.Placement, opt propagation.Options) (any, engine.Metrics, error) {
	return runPropagation(a, r, pg, pl, opt)
}

// vddMR is the natural MapReduce implementation: emit (degree, 1), sum.
type vddMR struct{}

func (vddMR) Map(pi *storage.PartInfo, g *graph.Graph, emit func(int, int64)) {
	for _, v := range pi.Vertices {
		emit(g.OutDegree(v), 1)
	}
}

func (vddMR) Reduce(_ int, values []int64) int64 {
	var sum int64
	for _, c := range values {
		sum += c
	}
	return sum
}

// CombineValues folds counts map-side (a MapReduce combiner): degree
// counting is associative, so each map task ships one pair per distinct
// degree instead of one per vertex.
func (vddMR) CombineValues(_ int, values []int64) int64 {
	var sum int64
	for _, c := range values {
		sum += c
	}
	return sum
}

func (vddMR) PairBytes(int, int64) int64 { return 12 }
func (vddMR) ResultBytes(int64) int64    { return 12 }

// RunMapReduce returns the degree histogram as map[degree]count.
func (a *VDD) RunMapReduce(r *engine.Runner, pg *storage.PartitionedGraph, pl *partition.Placement) (any, engine.Metrics, error) {
	res, m, err := mapreduce.Run[int, int64, int64](r, pg, pl, vddMR{}, mapreduce.Options{})
	if err != nil {
		return nil, m, err
	}
	return res, m, nil
}

// ReferenceVDD computes the histogram sequentially.
func ReferenceVDD(g *graph.Graph) map[int]int64 {
	return g.DegreeHistogram()
}
