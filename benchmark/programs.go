package main

import (
	"slices"

	"repro/internal/apps"
	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/partition"
	"repro/internal/propagation"
	"repro/internal/storage"
	"repro/internal/trace"
)

var (
	o1 = propagation.Options{}
	o4 = propagation.Options{LocalPropagation: true, LocalCombination: true}
)

// rankProgram is the benchmark's own copy of network ranking (Algorithm 1),
// operation for operation what apps.NR runs. The traced repetitions plan it
// with propagation.PlanIterations and run the planned jobs one by one, which
// is what propagation.Iterate does inside apps.NR, so that planning
// (compute, merge) and the event loop get a span each; the results and the
// summed engine.Metrics must then equal the apps.NR run's exactly.
type rankProgram struct {
	g *graph.Graph
	n float64
}

func (p *rankProgram) Init(graph.VertexID) float64 { return 1 / p.n }

func (p *rankProgram) Transfer(src graph.VertexID, rank float64, dst graph.VertexID, emit propagation.Emit[float64]) {
	emit(dst, rank*apps.Damping/float64(p.g.OutDegree(src)))
}

func (p *rankProgram) Combine(_ graph.VertexID, _ float64, values []float64) float64 {
	sum := 0.0
	for _, r := range values {
		sum += r
	}
	return sum + (1-apps.Damping)/p.n
}

func (p *rankProgram) Bytes(float64) int64 { return 8 }
func (p *rankProgram) Associative() bool   { return true }

func (p *rankProgram) Merge(_ graph.VertexID, values []float64) float64 {
	sum := 0.0
	for _, r := range values {
		sum += r
	}
	return sum
}

// listProgram is a list-valued program shaped like RLG: every edge carries a
// one-element list and combine concatenates and sorts. It exercises the
// slab path of the bag pool that scalar programs never touch.
type listProgram struct{}

func (listProgram) Init(graph.VertexID) []graph.VertexID { return nil }

func (listProgram) Transfer(src graph.VertexID, _ []graph.VertexID, dst graph.VertexID, emit propagation.Emit[[]graph.VertexID]) {
	emit(dst, []graph.VertexID{src})
}

func (listProgram) Combine(_ graph.VertexID, _ []graph.VertexID, values [][]graph.VertexID) []graph.VertexID {
	return listProgram{}.Merge(0, values)
}

func (listProgram) Bytes(l []graph.VertexID) int64 {
	if len(l) == 0 {
		return 0
	}
	return 4 + 4*int64(len(l))
}

func (listProgram) Associative() bool { return true }

func (listProgram) Merge(_ graph.VertexID, values [][]graph.VertexID) []graph.VertexID {
	var out []graph.VertexID
	for _, l := range values {
		out = append(out, l...)
	}
	slices.Sort(out)
	return out
}

// planRank plans iters iterations of the rank program under a span. A nil
// pool plans serially.
func planRank(t *tracer, spanName string, pool *engine.Pool, pg *storage.PartitionedGraph, pl *partition.Placement, opt propagation.Options, iters int) (jobs []*engine.Job, ranks []float64, err error) {
	err = t.span(spanName, func() error {
		prog := &rankProgram{g: pg.G, n: float64(pg.G.NumVertices())}
		st := propagation.NewState[float64](pg, prog)
		var final *propagation.State[float64]
		jobs, final, err = propagation.PlanIterations(pool, pg, pl, prog, st, opt, iters, "propagation")
		if err == nil {
			ranks = final.Values
		}
		return err
	})
	return jobs, ranks, err
}

// runJobs runs planned jobs on a fresh runner under a span and sums their
// metrics, as propagation.RunIterations does.
func runJobs(t *tracer, spanName string, cfg engine.Config, jobs []*engine.Job) (total engine.Metrics, err error) {
	err = t.span(spanName, func() error {
		r := engine.New(cfg)
		for _, job := range jobs {
			m, err := r.Run(job)
			if err != nil {
				return err
			}
			total.Add(m)
		}
		return nil
	})
	return total, err
}

// streamDigest is the SHA-256 of an event stream in its raw file form.
func streamDigest(events []trace.Event) string {
	h := newDigest()
	if err := trace.WriteEvents(h, nil, events); err != nil {
		panic(err) // a hash never fails to write
	}
	return h.sum()
}
