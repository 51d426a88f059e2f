package jobsvc

import (
	"fmt"
	"math/rand"

	"repro/internal/apps"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/propagation"
)

// Apps lists the plannable application names of a jobs file.
var Apps = []string{"rank", "reach"}

// PlannerConfig sizes a shared deployment all tenants' jobs plan against:
// one graph, one partitioning, one placement — the multi-tenant premise is
// a shared cluster, not a shared dataset copy per tenant.
type PlannerConfig struct {
	Graph *graph.Graph
	Topo  *cluster.Topology
	// Levels is log2 of the partition count.
	Levels int
	// Seed drives partitioning.
	Seed int64
	// Workers sizes the planning compute pool (0 = GOMAXPROCS, 1 =
	// serial); plans are bit-identical for every value.
	Workers int
}

// Planner turns job specs into engine-job plans via the propagation
// planning API. Plans are pure functions of (app, iterations) over the
// shared deployment, so the deployment's bisection keeps them and jobs share
// them safely: neither the service nor the engine writes to a plan.
type Planner struct {
	sys  *core.System
	pool *engine.Pool
	opt  propagation.Options
}

// NewPlanner partitions the graph and places it on the topology, as
// core.Build does (which also rejects a missing graph or topology and a bad
// Levels).
func NewPlanner(cfg PlannerConfig) (*Planner, error) {
	sys, err := core.Build(core.Config{Graph: cfg.Graph, Topology: cfg.Topo, Levels: cfg.Levels, Seed: cfg.Seed})
	if err != nil {
		return nil, err
	}
	return &Planner{
		sys:  sys,
		pool: engine.NewPool(cfg.Workers),
		opt:  propagation.Options{LocalPropagation: true, LocalCombination: true},
	}, nil
}

// Plan returns the engine jobs of one spec ("<app>-iter-001"…).
func (p *Planner) Plan(spec JobSpec) ([]*engine.Job, error) {
	pg, pl := p.sys.PG, p.sys.Placement
	var prog propagation.Program[float64]
	switch spec.App {
	case "rank":
		prog = apps.NRProgram(pg.G)
	case "reach":
		prog = reachProg{}
	default:
		return nil, fmt.Errorf("jobsvc: unknown app %q (want one of %v)", spec.App, Apps)
	}
	return p.sys.Plan(pl, fmt.Sprintf("%s/%d", spec.App, spec.Iterations), p.opt, func() ([]*engine.Job, error) {
		jobs, _, err := propagation.PlanIterations(p.pool, pg, pl, prog, propagation.NewState(pg, prog), p.opt, spec.Iterations, spec.App)
		return jobs, err
	})
}

// Jobs plans a whole workload into service submissions.
func (p *Planner) Jobs(wl *Workload) ([]Job, error) {
	jobs := make([]Job, 0, len(wl.Jobs))
	for _, spec := range wl.Jobs {
		plan, err := p.Plan(spec)
		if err != nil {
			return nil, err
		}
		jobs = append(jobs, Job{Spec: spec, Plan: plan})
	}
	return jobs, nil
}

// reachProg is min-label propagation (connected-component style
// reachability): every vertex floods its label, combine keeps the minimum.
type reachProg struct{}

func (reachProg) Init(v graph.VertexID) float64 { return float64(v) }

func (reachProg) Transfer(_ graph.VertexID, label float64, dst graph.VertexID, emit propagation.Emit[float64]) {
	emit(dst, label)
}

func (reachProg) Combine(_ graph.VertexID, prev float64, values []float64) float64 {
	min := prev
	for _, v := range values {
		if v < min {
			min = v
		}
	}
	return min
}

func (reachProg) Bytes(float64) int64 { return 8 }
func (reachProg) Associative() bool   { return true }
func (reachProg) Merge(_ graph.VertexID, values []float64) float64 {
	min := values[0]
	for _, v := range values[1:] {
		if v < min {
			min = v
		}
	}
	return min
}

// SyntheticPlan draws a deterministic plan straight from a seed — no graph,
// no planner — for scheduler tests and fuzzing: planJobs engine jobs of
// `stages` stages with tasksPerStage tasks spread over the machines, each
// task feeding bytes to every next-stage task. Identical arguments produce
// identical plans.
func SyntheticPlan(seed int64, machines, planJobs, stages, tasksPerStage int) []*engine.Job {
	rng := rand.New(rand.NewSource(seed))
	jobs := make([]*engine.Job, planJobs)
	for ji := range jobs {
		job := &engine.Job{Name: fmt.Sprintf("synth-%03d", ji)}
		for si := 0; si < stages; si++ {
			st := &engine.Stage{Name: fmt.Sprintf("stage-%d", si)}
			for ti := 0; ti < tasksPerStage; ti++ {
				t := &engine.Task{
					Name:      fmt.Sprintf("s%d-t%d", si, ti),
					Part:      engine.NoPart,
					Machine:   cluster.MachineID(rng.Intn(machines)),
					Compute:   0.0002 + float64(0.0008*rng.Float64()), // rounded: no fused multiply-add (DESIGN.md)
					DiskRead:  int64(1 + rng.Intn(1<<14)),
					DiskWrite: int64(1 + rng.Intn(1<<14)),
				}
				if si+1 < stages {
					for d := 0; d < tasksPerStage; d++ {
						t.Outputs = append(t.Outputs, engine.Output{
							DstTask: d,
							Bytes:   int64(1 + rng.Intn(1<<16)),
						})
					}
				}
				st.Tasks = append(st.Tasks, t)
			}
			job.Stages = append(job.Stages, st)
		}
		jobs[ji] = job
	}
	return jobs
}
