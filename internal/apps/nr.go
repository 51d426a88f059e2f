package apps

import (
	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/mapreduce"
	"repro/internal/partition"
	"repro/internal/propagation"
	"repro/internal/storage"
)

// Damping is the PageRank random-jump factor d.
const Damping = 0.85

// NR is network ranking: iterative PageRank over the graph (Appendix D,
// Algorithm 1). Its access pattern is the canonical propagation workload.
type NR struct {
	iterations int
}

// NewNR creates the network-ranking application with the given iteration
// count.
func NewNR(iterations int) *NR { return &NR{iterations: iterations} }

func (a *NR) Name() string    { return "NR" }
func (a *NR) Iterations() int { return a.iterations }

// nrProgram is the propagation program of Algorithm 1: transfer sends
// rank*d/outdegree along each edge; combine sums the received partial ranks
// and adds the random-jump term.
type nrProgram struct {
	g *graph.Graph
	n float64
}

func (p *nrProgram) Init(graph.VertexID) float64 { return 1 / p.n }

func (p *nrProgram) Transfer(src graph.VertexID, rank float64, dst graph.VertexID, emit propagation.Emit[float64]) {
	emit(dst, rank*Damping/float64(p.g.OutDegree(src)))
}

// Scatter is Transfer's one value along every out-edge of src
// (propagation.Scatterer).
func (p *nrProgram) Scatter(src graph.VertexID, rank float64) (float64, bool) {
	return rank * Damping / float64(p.g.OutDegree(src)), true
}

func (p *nrProgram) Combine(_ graph.VertexID, _ float64, values []float64) float64 {
	sum := 0.0
	for _, r := range values {
		sum += r
	}
	return sum + (1-Damping)/p.n
}

func (p *nrProgram) Bytes(float64) int64 { return 8 }

func (p *nrProgram) Associative() bool { return true }

func (p *nrProgram) Merge(_ graph.VertexID, values []float64) float64 {
	sum := 0.0
	for _, r := range values {
		sum += r
	}
	return sum
}

// NRProgram is NR's propagation program over g, for studies that drive the
// primitive themselves (cascaded propagation, tree aggregation) rather than
// run the application.
func NRProgram(g *graph.Graph) propagation.Program[float64] {
	return &nrProgram{g: g, n: float64(g.NumVertices())}
}

// Plan plans the configured number of PageRank iterations; the result is the
// final rank vector.
func (a *NR) Plan(pool *engine.Pool, pg *storage.PartitionedGraph, pl *partition.Placement, opt propagation.Options) (any, []*engine.Job, error) {
	prog := NRProgram(pg.G)
	return planValues(propagation.PlanIterations(pool, pg, pl, prog, propagation.NewState(pg, prog), opt, a.iterations, "propagation"))
}

func (a *NR) RunPropagation(r *engine.Runner, pg *storage.PartitionedGraph, pl *partition.Placement, opt propagation.Options) (any, engine.Metrics, error) {
	return runPropagation(a, r, pg, pl, opt)
}

// nrMR is the MapReduce implementation of Algorithm 2: map computes partial
// ranks per partition into a table (one emission per distinct destination
// seen in the partition) and reduce sums them.
type nrMR struct {
	g     *graph.Graph
	ranks []float64
	// tables lends each running map task its table: one per pool worker,
	// sized on first use, all-zero between tasks.
	tables chan *nrTable
}

// nrTable is a map task's partial ranks: a dense sum per vertex and the
// vertices touched so far.
type nrTable struct {
	sum     []float64
	seen    []bool
	touched []graph.VertexID
}

func newNRMR(g *graph.Graph, workers int) *nrMR {
	p := &nrMR{g: g, tables: make(chan *nrTable, workers)}
	for range workers {
		p.tables <- &nrTable{}
	}
	return p
}

func (p *nrMR) Map(pi *storage.PartInfo, g *graph.Graph, emit func(graph.VertexID, float64)) {
	t := <-p.tables
	if t.sum == nil {
		t.sum, t.seen = make([]float64, g.NumVertices()), make([]bool, g.NumVertices())
	}
	for _, u := range pi.Vertices {
		deg := g.OutDegree(u)
		if deg == 0 {
			continue
		}
		delta := p.ranks[u] * Damping / float64(deg)
		for _, v := range g.Neighbors(u) {
			if !t.seen[v] {
				t.seen[v] = true
				t.touched = append(t.touched, v)
			}
			t.sum[v] += delta
		}
	}
	// One pair per destination, in first-touch order — a deterministic order
	// (no Go map is ranged over), and one that cannot show: a reducer sums a
	// key's values in map-task order, and each task emits a key once.
	for _, v := range t.touched {
		emit(v, t.sum[v])
		t.sum[v], t.seen[v] = 0, false
	}
	t.touched = t.touched[:0]
	p.tables <- t
}

func (p *nrMR) Reduce(_ graph.VertexID, values []float64) float64 {
	sum := 0.0
	for _, r := range values {
		sum += r
	}
	return sum + (1-Damping)/float64(p.g.NumVertices())
}

func (p *nrMR) PairBytes(graph.VertexID, float64) int64 { return 12 }
func (p *nrMR) ResultBytes(float64) int64               { return 12 }

// RunMapReduce runs the configured number of iterations with the MapReduce
// primitive, re-distributing the rank vector between iterations.
func (a *NR) RunMapReduce(r *engine.Runner, pg *storage.PartitionedGraph, pl *partition.Placement) (any, engine.Metrics, error) {
	n := pg.G.NumVertices()
	ranks := make([]float64, n)
	for i := range ranks {
		ranks[i] = 1 / float64(n)
	}
	var total engine.Metrics
	prog := newNRMR(pg.G, r.Workers())
	for it := 0; it < a.iterations; it++ {
		prog.ranks = ranks
		res, m, err := mapreduce.Run[graph.VertexID, float64, float64](r, pg, pl, prog, mapreduce.Options{StatePerVertexBytes: 8})
		if err != nil {
			return nil, total, err
		}
		total.Add(m)
		next := make([]float64, n)
		jump := (1 - Damping) / float64(n)
		for v := range next {
			next[v] = jump // vertices with no inbound mass
		}
		for v, r := range res {
			next[v] = r
		}
		ranks = next
	}
	return ranks, total, nil
}

// ReferenceNR computes PageRank sequentially with the same semantics as
// both distributed implementations.
func ReferenceNR(g *graph.Graph, iterations int) []float64 {
	n := g.NumVertices()
	ranks := make([]float64, n)
	for i := range ranks {
		ranks[i] = 1 / float64(n)
	}
	for it := 0; it < iterations; it++ {
		next := make([]float64, n)
		jump := (1 - Damping) / float64(n)
		for v := range next {
			next[v] = jump
		}
		for u := 0; u < n; u++ {
			deg := g.OutDegree(graph.VertexID(u))
			if deg == 0 {
				continue
			}
			delta := ranks[u] * Damping / float64(deg)
			for _, v := range g.Neighbors(graph.VertexID(u)) {
				next[v] += delta
			}
		}
		ranks = next
	}
	return ranks
}
