package apps

import (
	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/mapreduce"
	"repro/internal/partition"
	"repro/internal/propagation"
	"repro/internal/storage"
)

// RSConfig parameterizes the recommender-system simulation (Appendix D):
// recommendation starts at a seed set of product users; each user
// recommends to all friends; a recipient accepts with a fixed probability.
// Acceptance is derandomized per vertex with a hash so both primitives and
// the reference agree exactly.
type RSConfig struct {
	// SeedPermille: a vertex starts as a product user when
	// hash(v) % 1000 < SeedPermille.
	SeedPermille int
	// AcceptPermille: a recommended vertex accepts when
	// hash(v+salt) % 1000 < AcceptPermille.
	AcceptPermille int
	// Iterations of recommendation rounds.
	Iterations int
}

// DefaultRSConfig seeds 1% of the network and accepts at 30%.
func DefaultRSConfig() RSConfig {
	return RSConfig{SeedPermille: 10, AcceptPermille: 300, Iterations: 3}
}

// RS is the recommender-system application.
type RS struct {
	cfg RSConfig
}

// NewRS creates the recommender application.
func NewRS(cfg RSConfig) *RS { return &RS{cfg: cfg} }

func (a *RS) Name() string    { return "RS" }
func (a *RS) Iterations() int { return a.cfg.Iterations }

func rsHash(v graph.VertexID, salt uint64) uint64 {
	x := uint64(v)*0x9E3779B97F4A7C15 + salt*0xBF58476D1CE4E5B9
	x ^= x >> 31
	x *= 0x94D049BB133111EB
	x ^= x >> 27
	return x
}

func (cfg RSConfig) seeded(v graph.VertexID) bool {
	return int(rsHash(v, 1)%1000) < cfg.SeedPermille
}

func (cfg RSConfig) accepts(v graph.VertexID) bool {
	return int(rsHash(v, 2)%1000) < cfg.AcceptPermille
}

// rsProgram: value 1 means the vertex uses the product. Transfer recommends
// to every friend of a user; combine flips a recipient to user when it
// accepts.
type rsProgram struct {
	cfg RSConfig
}

func (p *rsProgram) Init(v graph.VertexID) uint8 {
	if p.cfg.seeded(v) {
		return 1
	}
	return 0
}

func (p *rsProgram) Transfer(_ graph.VertexID, use uint8, dst graph.VertexID, emit propagation.Emit[uint8]) {
	if use == 1 {
		emit(dst, 1)
	}
}

// Scatter is Transfer's one value along every out-edge of a user
// (propagation.Scatterer).
func (p *rsProgram) Scatter(_ graph.VertexID, use uint8) (uint8, bool) { return 1, use == 1 }

func (p *rsProgram) Combine(v graph.VertexID, prev uint8, values []uint8) uint8 {
	if prev == 1 {
		return 1
	}
	if len(values) > 0 && p.cfg.accepts(v) {
		return 1
	}
	return 0
}

func (p *rsProgram) Bytes(uint8) int64 { return 1 }

func (p *rsProgram) Associative() bool { return true }

func (p *rsProgram) Merge(_ graph.VertexID, values []uint8) uint8 {
	// Any recommendation is as good as many: OR.
	return 1
}

// Plan plans the recommendation rounds; the result is the final adoption
// vector.
func (a *RS) Plan(pool *engine.Pool, pg *storage.PartitionedGraph, pl *partition.Placement, opt propagation.Options) (any, []*engine.Job, error) {
	prog := &rsProgram{cfg: a.cfg}
	return planValues(propagation.PlanIterations(pool, pg, pl, prog, propagation.NewState[uint8](pg, prog), opt, a.cfg.Iterations, "propagation"))
}

func (a *RS) RunPropagation(r *engine.Runner, pg *storage.PartitionedGraph, pl *partition.Placement, opt propagation.Options) (any, engine.Metrics, error) {
	return runPropagation(a, r, pg, pl, opt)
}

// rsMR is the MapReduce variant: map emits a recommendation pair per friend
// of each product user; reduce applies the acceptance rule.
type rsMR struct {
	cfg   RSConfig
	state []uint8
}

func (p *rsMR) Map(pi *storage.PartInfo, g *graph.Graph, emit func(graph.VertexID, uint8)) {
	for _, u := range pi.Vertices {
		if p.state[u] != 1 {
			continue
		}
		for _, v := range g.Neighbors(u) {
			emit(v, 1)
		}
	}
}

func (p *rsMR) Reduce(v graph.VertexID, values []uint8) uint8 {
	if p.state[v] == 1 {
		return 1
	}
	if len(values) > 0 && p.cfg.accepts(v) {
		return 1
	}
	return 0
}

func (p *rsMR) PairBytes(graph.VertexID, uint8) int64 { return 5 }
func (p *rsMR) ResultBytes(uint8) int64               { return 5 }

// RunMapReduce runs the rounds with the MapReduce primitive.
func (a *RS) RunMapReduce(r *engine.Runner, pg *storage.PartitionedGraph, pl *partition.Placement) (any, engine.Metrics, error) {
	n := pg.G.NumVertices()
	state := make([]uint8, n)
	for v := range state {
		if a.cfg.seeded(graph.VertexID(v)) {
			state[v] = 1
		}
	}
	var total engine.Metrics
	for it := 0; it < a.cfg.Iterations; it++ {
		prog := &rsMR{cfg: a.cfg, state: state}
		res, m, err := mapreduce.Run[graph.VertexID, uint8, uint8](r, pg, pl, prog, mapreduce.Options{StatePerVertexBytes: 1})
		if err != nil {
			return nil, total, err
		}
		total.Add(m)
		next := make([]uint8, n)
		copy(next, state)
		for v, adopted := range res {
			if adopted == 1 {
				next[v] = 1
			}
		}
		state = next
	}
	return state, total, nil
}

// ReferenceRS computes the adoption vector sequentially.
func ReferenceRS(g *graph.Graph, cfg RSConfig) []uint8 {
	n := g.NumVertices()
	state := make([]uint8, n)
	for v := range state {
		if cfg.seeded(graph.VertexID(v)) {
			state[v] = 1
		}
	}
	for it := 0; it < cfg.Iterations; it++ {
		recommended := make([]bool, n)
		for u := 0; u < n; u++ {
			if state[u] != 1 {
				continue
			}
			for _, v := range g.Neighbors(graph.VertexID(u)) {
				recommended[v] = true
			}
		}
		next := make([]uint8, n)
		copy(next, state)
		for v := range recommended {
			if recommended[v] && state[v] != 1 && cfg.accepts(graph.VertexID(v)) {
				next[v] = 1
			}
		}
		state = next
	}
	return state
}
