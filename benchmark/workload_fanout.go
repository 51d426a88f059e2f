package main

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"reflect"
	"time"

	"repro/internal/analyze"
	"repro/internal/apps"
	"repro/internal/cluster"
	"repro/internal/engine"
	"repro/internal/fault"
	"repro/internal/jobsvc"
	"repro/internal/metrics"
	"repro/internal/partition"
	"repro/internal/trace"
)

const (
	fanoutLevels   = 8   // 256 partitions
	fanoutMachines = 128 // T2(128, 4 pods, 1 level)
	// The job service's shared deployment and workload.
	serviceMachines    = 32
	serviceJobs        = 24
	serviceTenants     = 6
	serviceMaxIters    = 3
	serviceConcurrency = 4
	// The arrival trace is drawn with a seed of its own: its size (24 jobs
	// of one to three iterations) would otherwise swing the job service's
	// event count, and with it every host metric of this workload, by a
	// tenth from seed to seed. The graph and the cluster the jobs are
	// planned on still derive from -seed.
	serviceTraceSeed = 42
	metricsWindow    = 0.01 // virtual seconds
)

// fanoutWorkload is the simulator as a program: hardly any compute, so the
// event queue, the NIC model, the retry path, trace.Emit, the job service's
// own event loop and the folds over the stream do the work.
type fanoutWorkload struct {
	c   *config
	d   *deployment
	ier float64
	ref []float64
	// faults and retry are sized against the fault-free response, see
	// setupFanout.
	faults *fault.Schedule
	retry  fault.RetryPolicy
	// The job service's side: topology, planned jobs.
	serviceTopo *cluster.Topology
	jobs        []jobsvc.Job

	// Outputs of the repetition just run.
	ranks      []float64
	metrics    engine.Metrics
	rec        *trace.Recorder   // the engine's stream
	records    [][]jobsvc.Record // per policy
	serviceLen int               // job-service recorder events, all policies
	stream     []byte            // the engine stream's file form
	readBack   *trace.Stream
	report     *analyze.Report
	series     *metrics.Set
	phases     map[string]float64
	planned    []*engine.Job // the last traced repetition's engine jobs
}

func setupFanout(t *tracer, c *config, n int) (instance, error) {
	g := generate(t, n, c.seed)
	d, err := deploy(t, g, treeTopology(t, fanoutMachines), fanoutLevels, c.seed)
	if err != nil {
		return nil, err
	}
	d.noteQuality(t)
	w := &fanoutWorkload{c: c, d: d, ier: partition.InnerEdgeRatio(g, d.pt)}
	t.span("apps.reference", func() error {
		w.ref = apps.ReferenceNR(g, nrIterations)
		return nil
	})

	// The fault schedule's horizon is the fault-free response, so the
	// windows overlap the run. The retry policy is scaled to the same
	// horizon: with the default one-second timeout the first dropped
	// transfer stretches this 1.3-second run past every later window and
	// the retry path is entered twice; at a hundredth of the horizon it is
	// entered some eighty times and the response stays steady across seeds.
	_, base, err := apps.NewNR(nrIterations).RunPropagation(engine.New(w.engineConfig(nil, false)), d.pg, d.placeRnd, o1)
	if err != nil {
		return nil, err
	}
	h := base.ResponseSeconds
	w.faults, _ = fault.Generate(fault.GenConfig{
		Machines: fanoutMachines, Horizon: h, Degrades: 200, Drops: 200, Slowdowns: 32, Seed: c.seed,
	})
	w.retry = fault.RetryPolicy{Timeout: h / 100, Backoff: h / 400, MaxBackoff: h / 10}
	if err := w.faults.Validate(fanoutMachines); err != nil {
		return nil, err
	}

	err = t.span("jobsvc.plan", func() error {
		w.serviceTopo = cluster.NewT3(serviceMachines, c.seed)
		planner, err := jobsvc.NewPlanner(jobsvc.PlannerConfig{
			Graph: g, Topo: w.serviceTopo, Levels: deployLevels, Seed: c.seed, Workers: c.workers,
		})
		if err != nil {
			return err
		}
		wl := jobsvc.GenerateWorkload(jobsvc.GenConfig{
			Jobs: serviceJobs, Tenants: serviceTenants, MaxPriority: 2, MaxIterations: serviceMaxIters, Seed: serviceTraceSeed,
		})
		w.jobs, err = planner.Jobs(wl)
		return err
	})
	return w, err
}

func (w *fanoutWorkload) work() float64 { return float64(w.d.g.NumEdges()) * nrIterations }

func (w *fanoutWorkload) engineConfig(rec *trace.Recorder, faults bool) engine.Config {
	cfg := engine.Config{Topo: w.d.topo, Workers: w.c.workers, Trace: rec}
	if faults {
		cfg.Faults, cfg.Retry = w.faults, w.retry
	}
	return cfg
}

func (w *fanoutWorkload) topoInfo() *trace.TopoInfo {
	topo := w.d.topo
	return &trace.TopoInfo{Name: topo.Name(), Machines: topo.NumMachines(), Bandwidth: topo.BandwidthMatrix()}
}

func (w *fanoutWorkload) rep(t *tracer) error {
	w.phases = make(map[string]float64)
	phase := func(name string, f func() error) error {
		start := time.Now()
		err := t.span("bench."+name, f)
		w.phases[name] = time.Since(start).Seconds()
		return err
	}
	if err := phase("simulate", func() error { return w.simulate(t) }); err != nil {
		return err
	}
	return phase("inspect", func() error { return w.inspect(t) })
}

// simulate runs NR x 10 at O1 with the recorder and the faults on, then the
// planned jobs through the job service once per policy.
func (w *fanoutWorkload) simulate(t *tracer) error {
	w.rec = trace.NewRecorder()
	cfg := w.engineConfig(w.rec, true)
	if t == nil {
		got, m, err := apps.NewNR(nrIterations).RunPropagation(engine.New(cfg), w.d.pg, w.d.placeRnd, o1)
		if err != nil {
			return err
		}
		w.ranks, w.metrics = got.([]float64), m
	} else {
		jobs, ranks, err := planRank(t, "propagation.plan_o1", engine.NewPool(w.c.workers), w.d.pg, w.d.placeRnd, o1, nrIterations)
		if err != nil {
			return err
		}
		m, err := runJobs(t, "engine.faulted_run", cfg, jobs)
		if err != nil {
			return err
		}
		w.planned, w.ranks, w.metrics = jobs, ranks, m
	}
	w.records = w.records[:0]
	w.serviceLen = 0
	for _, pol := range jobsvc.Policies {
		rec := trace.NewRecorder()
		err := t.span("jobsvc.run_"+pol.String(), func() error {
			recs, err := jobsvc.Run(jobsvc.Config{
				Topo: w.serviceTopo, Policy: pol, Concurrency: serviceConcurrency, Trace: rec,
			}, w.jobs)
			w.records = append(w.records, recs)
			return err
		})
		if err != nil {
			return fmt.Errorf("job service, %s: %w", pol, err)
		}
		w.serviceLen += rec.Len()
	}
	return nil
}

// inspect takes the engine's stream through its file form and the folds.
func (w *fanoutWorkload) inspect(t *tracer) error {
	var buf bytes.Buffer
	err := t.span("trace.write", func() error { return trace.WriteEvents(&buf, w.topoInfo(), w.rec.Events()) })
	if err != nil {
		return err
	}
	w.stream = buf.Bytes()
	err = t.span("trace.read", func() (err error) {
		w.readBack, err = trace.ReadEvents(bytes.NewReader(w.stream))
		return err
	})
	if err != nil {
		return err
	}
	events := w.readBack.Events
	topo := cluster.NewTopologyFromMatrix(w.readBack.Topo.Name, w.readBack.Topo.Bandwidth)
	t.span("trace.summarize", func() error {
		trace.Summarize(events)
		return nil
	})
	err = t.span("analyze.analyze", func() (err error) {
		w.report, err = analyze.Analyze(events, topo)
		return err
	})
	if err != nil {
		return err
	}
	return t.span("metrics.fold", func() (err error) {
		w.series, _, err = metrics.FromEvents(events, metrics.Config{Window: metricsWindow, Topo: topo})
		return err
	})
}

func (w *fanoutWorkload) verify(t *tracer) outcome {
	o := outcome{virtual: w.metrics, ier: w.ier, phases: w.phases, exact: make(map[string]float64)}
	if !floatsWithin(w.ranks, w.ref, 1e-12) {
		o.failed = append(o.failed, "nr")
	}
	if !reflect.DeepEqual(w.readBack.Events, w.rec.Events()) {
		o.failed = append(o.failed, "round-trip")
	}
	var blame float64
	for _, cat := range analyze.Categories {
		blame += w.report.Blame[cat]
	}
	residual := math.Abs(blame - w.report.Makespan)
	if !(residual <= 1e-9*math.Max(1, w.report.Makespan)) {
		o.failed = append(o.failed, "blame")
	}
	finished, preemptions := 0, 0
	for i, recs := range w.records {
		makespan, done := 0.0, 0
		for _, r := range recs {
			if !r.Rejected && r.Finished > 0 {
				done++
			}
			preemptions += r.Preemptions
			makespan = math.Max(makespan, r.Finished)
			o.virtual.NetworkBytes += r.NetworkBytes
		}
		if done != len(w.jobs) {
			o.failed = append(o.failed, "jobsvc-"+jobsvc.Policies[i].String())
		}
		finished += done
		o.virtual.ResponseSeconds += makespan
	}
	h := newDigest()
	h.add(w.ranks)
	h.Write(w.stream)
	o.digest = h.sum()

	o.exact["engine_events"] = float64(w.rec.Len())
	o.exact["jobsvc_events"] = float64(w.serviceLen)
	o.exact["jobsvc_jobs_finished"] = float64(finished)
	o.exact["stream_bytes"] = float64(len(w.stream))
	o.exact["metrics_series"] = float64(len(w.series.Series))
	o.exact["metrics_windows"] = float64(w.series.Windows)
	t.count("trace.stream_events", float64(w.rec.Len()))
	t.count("trace.stream_bytes", float64(len(w.stream)))
	t.count("engine.tasks_run", float64(w.metrics.TasksRun))
	t.count("engine.transfer_drops", float64(w.metrics.TransferDrops))
	t.count("engine.transfer_retries", float64(w.metrics.TransferRetries))
	t.count("analyze.blame_residual", residual)
	t.count("metrics.series", float64(len(w.series.Series)))
	t.count("metrics.windows", float64(w.series.Windows))
	t.count("jobsvc.events", float64(w.serviceLen))
	t.count("jobsvc.jobs_finished", float64(finished))
	t.count("jobsvc.preemptions", float64(preemptions))
	return o
}

// probe measures the event loop three more ways — bare, with a recorder, and
// with a live metrics collector on the recorder — and the two renderers.
func (w *fanoutWorkload) probe(t *tracer) (map[string]bool, error) {
	if _, err := runJobs(t, "engine.run", w.engineConfig(nil, false), w.planned); err != nil {
		return nil, err
	}
	checks, err := probeRank(t, w.engineConfig(nil, false), w.d, w.d.placeRnd, o1, nrIterations, w.planned, w.ranks)
	if err != nil {
		return nil, err
	}
	rec := trace.NewRecorder()
	col, err := metrics.NewCollector(metrics.Config{Window: metricsWindow, Topo: w.d.topo})
	if err != nil {
		return nil, err
	}
	col.Attach(rec)
	if _, err := runJobs(t, "engine.run_live", w.engineConfig(rec, false), w.planned); err != nil {
		return nil, err
	}
	col.Finish()
	err = t.span("trace.chrome", func() error { return trace.WriteChrome(io.Discard, w.rec.Events()) })
	if err != nil {
		return nil, err
	}
	err = t.span("analyze.render", func() error {
		if err := analyze.WriteText(io.Discard, w.report); err != nil {
			return err
		}
		return analyze.WriteJSON(io.Discard, w.report)
	})
	return checks, err
}
