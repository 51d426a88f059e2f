package main

import (
	"repro/internal/apps"
	"repro/internal/engine"
	"repro/internal/partition"
	"repro/internal/propagation"
	"repro/internal/trace"
)

const nrIterations = 10

// nrWorkload runs ten NR iterations at O4 on a deployment built in set-up.
type nrWorkload struct {
	c   *config
	d   *deployment
	ier float64
	ref []float64 // ReferenceNR(g, 10)

	// Outputs of the repetition just run.
	ranks   []float64
	metrics engine.Metrics
	// jobs are the planned jobs of the last traced repetition, reused by
	// the probes.
	jobs []*engine.Job
}

func setupNR(t *tracer, c *config, n int) (instance, error) {
	g := generate(t, n, c.seed)
	d, err := deploy(t, g, treeTopology(t, 32), deployLevels, c.seed)
	if err != nil {
		return nil, err
	}
	d.noteQuality(t)
	w := &nrWorkload{c: c, d: d, ier: partition.InnerEdgeRatio(g, d.pt)}
	t.span("apps.reference", func() error {
		w.ref = apps.ReferenceNR(g, nrIterations)
		return nil
	})
	return w, nil
}

func (w *nrWorkload) work() float64 { return float64(w.d.g.NumEdges()) * nrIterations }

func (w *nrWorkload) engineConfig() engine.Config {
	return engine.Config{Topo: w.d.topo, Workers: w.c.workers}
}

func (w *nrWorkload) rep(t *tracer) error {
	if t == nil {
		got, m, err := apps.NewNR(nrIterations).RunPropagation(engine.New(w.engineConfig()), w.d.pg, w.d.placeBA, o4)
		if err != nil {
			return err
		}
		w.ranks, w.metrics = got.([]float64), m
		return nil
	}
	// Traced: plan (compute + merge), then the event loop, a span each.
	jobs, ranks, err := planRank(t, "propagation.plan", engine.NewPool(w.c.workers), w.d.pg, w.d.placeBA, o4, nrIterations)
	if err != nil {
		return err
	}
	t.count("propagation.edges", w.work())
	m, err := runJobs(t, "engine.run", w.engineConfig(), jobs)
	if err != nil {
		return err
	}
	t.count("engine.tasks_run", float64(m.TasksRun))
	w.jobs, w.ranks, w.metrics = jobs, ranks, m
	return nil
}

func (w *nrWorkload) verify(t *tracer) outcome {
	o := outcome{virtual: w.metrics, ier: w.ier}
	t.span("apps.verify", func() error {
		if !floatsWithin(w.ranks, w.ref, 1e-12) {
			o.failed = append(o.failed, "nr")
		}
		h := newDigest()
		h.add(w.ranks)
		o.digest = h.sum()
		return nil
	})
	return o
}

// probe times the serial plan and the traced event loop, and checks that
// one worker and N give the same ranks and the same event stream.
func (w *nrWorkload) probe(t *tracer) (map[string]bool, error) {
	return probeRank(t, w.engineConfig(), w.d, w.d.placeBA, o4, nrIterations, w.jobs, w.ranks)
}

// probeRank is the probe the three simulating workloads share: the serial
// plan (Workers 1) against the pooled one whose jobs and ranks are given,
// the event loop with a recorder on, and the two determinism checks.
func probeRank(t *tracer, cfg engine.Config, d *deployment, pl *partition.Placement, opt propagation.Options, iters int, jobs []*engine.Job, ranks []float64) (map[string]bool, error) {
	serialJobs, serialRanks, err := planRank(t, "propagation.plan_serial", nil, d.pg, pl, opt, iters)
	if err != nil {
		return nil, err
	}
	a, b := newDigest(), newDigest()
	a.add(ranks)
	b.add(serialRanks)
	checks := map[string]bool{"workers_1_vs_n_result": a.sum() == b.sum()}
	cfg.Trace = trace.NewRecorder()
	if _, err := runJobs(t, "engine.run_traced", cfg, jobs); err != nil {
		return nil, err
	}
	t.count("engine.events", float64(cfg.Trace.Len()))
	pooled := streamDigest(cfg.Trace.Events())
	cfg.Trace = trace.NewRecorder()
	if _, err := runJobs(t, "bench.check", cfg, serialJobs); err != nil {
		return nil, err
	}
	checks["workers_1_vs_n_stream"] = streamDigest(cfg.Trace.Events()) == pooled
	return checks, nil
}
