package main

import (
	"fmt"
	"strings"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/partition"
	"repro/internal/propagation"
)

// suiteWorkload runs the paper's six applications under both primitives.
type suiteWorkload struct {
	c    *config
	d    *deployment
	ier  float64
	apps []apps.App
	refs []any // the sequential reference of each app

	// Outputs of the repetition just run: per app, propagation then
	// MapReduce.
	results [][2]any
	metrics [][2]engine.Metrics
}

func setupSuite(t *tracer, c *config, n int) (instance, error) {
	g := generate(t, n, c.seed)
	d, err := deploy(t, g, treeTopology(t, 32), deployLevels, c.seed)
	if err != nil {
		return nil, err
	}
	d.noteQuality(t)
	w := &suiteWorkload{c: c, d: d, ier: partition.InnerEdgeRatio(g, d.pt), apps: apps.All()}
	err = t.span("apps.reference", func() error {
		for _, a := range w.apps {
			ref, err := reference(a, g)
			if err != nil {
				return err
			}
			w.refs = append(w.refs, ref)
		}
		return nil
	})
	return w, err
}

// reference computes an application's sequential reference with the
// parameters apps.All configures it with.
func reference(a apps.App, g *graph.Graph) (any, error) {
	switch a.Name() {
	case "VDD":
		return apps.ReferenceVDD(g), nil
	case "RS":
		return apps.ReferenceRS(g, apps.DefaultRSConfig()), nil
	case "NR":
		return apps.ReferenceNR(g, a.Iterations()), nil
	case "RLG":
		return apps.ReferenceRLG(g), nil
	case "TC":
		return apps.ReferenceTC(g, apps.DefaultSelectRatio), nil
	case "TFL":
		return apps.ReferenceTFL(g, apps.DefaultSelectRatio), nil
	}
	return nil, fmt.Errorf("no reference for application %s", a.Name())
}

func (w *suiteWorkload) work() float64 {
	iters := 0
	for _, a := range w.apps {
		iters += 2 * a.Iterations() // once under each primitive
	}
	return float64(w.d.g.NumEdges()) * float64(iters)
}

func (w *suiteWorkload) runner() *engine.Runner {
	return engine.New(engine.Config{Topo: w.d.topo, Workers: w.c.workers})
}

func (w *suiteWorkload) rep(t *tracer) error {
	w.results = make([][2]any, len(w.apps))
	w.metrics = make([][2]engine.Metrics, len(w.apps))
	for i, a := range w.apps {
		name := "apps." + strings.ToLower(a.Name())
		err := t.span(name+"_prop", func() (err error) {
			w.results[i][0], w.metrics[i][0], err = a.RunPropagation(w.runner(), w.d.pg, w.d.placeBA, o4)
			return err
		})
		if err != nil {
			return fmt.Errorf("%s propagation: %w", a.Name(), err)
		}
		err = t.span(name+"_mr", func() (err error) {
			w.results[i][1], w.metrics[i][1], err = a.RunMapReduce(w.runner(), w.d.pg, w.d.placeRnd)
			return err
		})
		if err != nil {
			return fmt.Errorf("%s MapReduce: %w", a.Name(), err)
		}
	}
	return nil
}

func (w *suiteWorkload) verify(t *tracer) outcome {
	o := outcome{ier: w.ier, exact: make(map[string]float64)}
	t.span("apps.verify", func() error {
		h := newDigest()
		for i, a := range w.apps {
			for j, primitive := range []string{"prop", "mr"} {
				op := strings.ToLower(a.Name()) + "_" + primitive
				if ok, err := resultEqual(w.results[i][j], w.refs[i]); err != nil || !ok {
					o.failed = append(o.failed, op)
				}
				h.add(w.results[i][j])
				o.virtual.Add(w.metrics[i][j])
				o.exact[op+"_network_bytes"] = float64(w.metrics[i][j].NetworkBytes)
				if a.Name() == "NR" && j == 1 {
					t.count("mapreduce.net_over_prop", ratio(float64(w.metrics[i][1].NetworkBytes), float64(w.metrics[i][0].NetworkBytes)))
				}
			}
		}
		o.digest = h.sum()
		return nil
	})
	return o
}

// probe isolates what the application calls hide: the rank plan and its
// event loop, a list-valued plan, and core.Build on the same inputs.
func (w *suiteWorkload) probe(t *tracer) (map[string]bool, error) {
	cfg := engine.Config{Topo: w.d.topo, Workers: w.c.workers}
	const iters = 3 // what apps.All gives NR
	jobs, ranks, err := planRank(t, "propagation.plan", engine.NewPool(w.c.workers), w.d.pg, w.d.placeBA, o4, iters)
	if err != nil {
		return nil, err
	}
	t.count("propagation.edges", float64(w.d.g.NumEdges())*iters)
	m, err := runJobs(t, "engine.run", cfg, jobs)
	if err != nil {
		return nil, err
	}
	t.count("engine.tasks_run", float64(m.TasksRun))
	checks, err := probeRank(t, cfg, w.d, w.d.placeBA, o4, iters, jobs, ranks)
	if err != nil {
		return nil, err
	}
	err = t.span("propagation.plan_list", func() error {
		st := propagation.NewState[[]graph.VertexID](w.d.pg, listProgram{})
		_, _, err := propagation.PlanIterations(engine.NewPool(w.c.workers), w.d.pg, w.d.placeBA, listProgram{}, st, o4, 1, "list")
		return err
	})
	if err != nil {
		return nil, err
	}
	err = t.span("core.build", func() error {
		_, err := core.Build(core.Config{Graph: w.d.g, Topology: w.d.topo, Levels: deployLevels, Seed: w.c.seed, Workers: w.c.workers})
		return err
	})
	return checks, err
}
