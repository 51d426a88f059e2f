package main

// metricDef is one row of the metric table. BENCHMARK.json repeats name,
// unit, direction and bound; the test keeps the two in step.
type metricDef struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // end-to-end only: the relative worsening that is a regression
	// From says where a per-layer value comes from: "span:<name>" is the
	// median self time of the spans of that name, "alloc:<name>" and
	// "mallocs:<name>" their allocation, "count:<name>" a counter the layer
	// reported (it must repeat exactly), and "" a value derived from others
	// in deriveLayers or taken from the untraced repetitions in run.
	From string
}

// endToEnd is what a user of the pipeline sees, measured with the
// benchmark's own tracing off. Every metric is defined on all four
// workloads, because the contract's driver expects every metric from every
// run; the two fanout-only rates of the issue (events_per_s,
// inspect_events_per_s) and failed_share, which is 0 on a healthy run, are
// per-layer metrics for that reason. So is peak_rss_mb: the collector's
// pacing moves it by a third between two runs of one seed, which no bound a
// gate could use would absorb.
//
// The bounds of the seed-dependent deterministic metrics (virtual_*,
// inner_edge_ratio, alloc_mb, allocs) are sized to their spread across
// seeds, which is what the driver checks. At one seed they repeat exactly,
// and -stability holds them to that.
//
// The bound of the two host-clock metrics is sized to the host: on a shared
// two-core box the median over a run's repetitions still moves 2-4% between
// runs of one seed (slow drift no repetition count removes), a busier host
// has shown three times that, and either can run a fifth slower for minutes
// on end; 0.10 was within that noise, so they take the contract's maximum.
var endToEnd = []metricDef{
	// Median over the set-up rounds of one set-up: graph generation and,
	// for all but deploy_262k, the deployment, the references and the plans.
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	// Median wall time of one timed repetition, verification excluded.
	{Name: "wall_s", Unit: "s", Better: "lower", Bound: 0.25},
	// Edges x iterations of the timed repetitions over their summed wall.
	{Name: "edges_per_s", Unit: "edges/s", Better: "higher", Bound: 0.25},
	// Median MemStats.TotalAlloc and Mallocs delta per repetition.
	{Name: "alloc_mb", Unit: "MB", Better: "lower", Bound: 0.05},
	{Name: "allocs", Unit: "count", Better: "lower", Bound: 0.05},
	// Summed engine.Metrics.ResponseSeconds (virtual seconds) of a
	// repetition's runs plus the job service's makespans, and their summed
	// NetworkBytes; on deploy_262k, of the one NR iteration the check runs
	// on the new deployment. Bit-equal across repetitions.
	{Name: "virtual_response_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "virtual_network_mb", Unit: "MB", Better: "lower", Bound: 0.10},
	// partition.InnerEdgeRatio of the workload's main partitioning (Table 5).
	{Name: "inner_edge_ratio", Unit: "ratio", Better: "higher", Bound: 0.05},
}

// perLayer comes from the -trace run: spans the benchmark records around
// its calls into each layer. A layer a workload does not call reads 0 there.
var perLayer = []metricDef{
	{Name: "bench.traced_wall_s", Unit: "s", Better: "lower"},                // median wall time of a traced repetition: the base of every self-time share
	{Name: "bench.trace_overhead", Unit: "s", Better: "lower"},               // traced minus untraced median repetition wall, both measured in the traced run
	{Name: "bench.rep_self_s", Unit: "s", Better: "lower", From: "span:rep"}, // repetition time no layer span covers
	{Name: "bench.events_per_s", Unit: "events/s", Better: "higher"},         // fanout: engine + job-service recorder events over the simulate phase of the untraced repetitions
	{Name: "bench.inspect_events_per_s", Unit: "events/s", Better: "higher"}, // fanout: engine-stream events over the inspect phase of the untraced repetitions
	{Name: "bench.failed_share", Unit: "ratio", Better: "lower"},             // operations whose check failed over operations attempted
	{Name: "bench.peak_rss_mb", Unit: "MB", Better: "lower"},                 // VmHWM of the workload's process at the end of the run (MemStats.Sys where /proc is missing)

	{Name: "graph.gen_s", Unit: "s", Better: "lower", From: "span:graph.gen"},               // graph.Social
	{Name: "graph.bytes", Unit: "B", Better: "lower", From: "count:graph.bytes"},            // Graph.SizeBytes
	{Name: "cluster.topology_s", Unit: "s", Better: "lower", From: "span:cluster.topology"}, // NewT2/NewT3 + BandwidthMatrix

	{Name: "partition.bisect_s", Unit: "s", Better: "lower", From: "span:partition.bisect"}, // partition.RecursiveBisect
	{Name: "partition.bisect_alloc_mb", Unit: "MB", Better: "lower", From: "alloc:partition.bisect"},
	{Name: "partition.bisect_allocs", Unit: "count", Better: "lower", From: "mallocs:partition.bisect"},
	{Name: "partition.place_s", Unit: "s", Better: "lower", From: "span:partition.place"},                // SketchPlacement + RandomPlacement
	{Name: "partition.share", Unit: "ratio", Better: "lower"},                                            // bisect self time inside timed repetitions over their wall (0 where bisect is set-up)
	{Name: "partition.cross_edges", Unit: "count", Better: "lower", From: "count:partition.cross_edges"}, // partition.CrossEdges
	{Name: "partition.balance", Unit: "ratio", Better: "lower", From: "count:partition.balance"},         // partition.Balance
	{Name: "partition.edges_per_s", Unit: "edges/s", Better: "higher"},                                   // graph edges over bisect_s

	{Name: "storage.build_s", Unit: "s", Better: "lower", From: "span:storage.build"}, // storage.Build
	{Name: "storage.build_alloc_mb", Unit: "MB", Better: "lower", From: "alloc:storage.build"},
	{Name: "storage.replicas_s", Unit: "s", Better: "lower", From: "span:storage.replicas"}, // storage.PlaceReplicas
	{Name: "storage.bytes", Unit: "B", Better: "lower", From: "count:storage.bytes"},        // PartitionedGraph.Bytes
	{Name: "storage.savedir_s", Unit: "s", Better: "lower", From: "span:storage.savedir"},   // deploy: SaveDir into a scratch directory
	{Name: "storage.loaddir_s", Unit: "s", Better: "lower", From: "span:storage.loaddir"},   // deploy: LoadDir of the same directory

	{Name: "core.build_s", Unit: "s", Better: "lower", From: "span:core.build"}, // suite: core.Build on the suite's inputs
	{Name: "core.build_over_parts", Unit: "ratio", Better: "lower"},             // suite: core.build_s over bisect + build + place + replicas of the set-up

	{Name: "propagation.plan_s", Unit: "s", Better: "lower", From: "span:propagation.plan"},               // NewState + PlanIterations of the rank program on the worker pool
	{Name: "propagation.plan_serial_s", Unit: "s", Better: "lower", From: "span:propagation.plan_serial"}, // the same plan with a nil pool
	{Name: "propagation.pool_speedup", Unit: "ratio", Better: "higher"},                                   // plan_serial_s over plan_s (base: serial)
	{Name: "propagation.serial_fraction", Unit: "ratio", Better: "lower"},                                 // Amdahl serial share implied by pool_speedup at the run's worker count
	{Name: "propagation.plan_alloc_mb", Unit: "MB", Better: "lower", From: "alloc:propagation.plan"},
	{Name: "propagation.plan_allocs", Unit: "count", Better: "lower", From: "mallocs:propagation.plan"},
	{Name: "propagation.edges_per_s", Unit: "edges/s", Better: "higher"},                              // edges x iterations planned over plan_s
	{Name: "propagation.plan_list_s", Unit: "s", Better: "lower", From: "span:propagation.plan_list"}, // suite: one iteration of a list-valued (RLG-shaped) program
	{Name: "propagation.plan_o1_s", Unit: "s", Better: "lower", From: "span:propagation.plan_o1"},     // fanout: the rank plan with no local optimisation

	{Name: "engine.run_s", Unit: "s", Better: "lower", From: "span:engine.run"},                 // Runner.Run of the planned jobs, recorder nil, no faults
	{Name: "engine.run_traced_s", Unit: "s", Better: "lower", From: "span:engine.run_traced"},   // the same jobs with a trace.Recorder
	{Name: "engine.faulted_run_s", Unit: "s", Better: "lower", From: "span:engine.faulted_run"}, // fanout: recorder and fault schedule on
	{Name: "engine.events", Unit: "count", Better: "lower", From: "count:engine.events"},        // events of the fault-free traced run
	{Name: "engine.events_per_s", Unit: "events/s", Better: "higher"},                           // engine.events over run_traced_s
	{Name: "engine.run_alloc_mb", Unit: "MB", Better: "lower", From: "alloc:engine.run"},
	{Name: "engine.run_allocs", Unit: "count", Better: "lower", From: "mallocs:engine.run"},
	{Name: "engine.tasks_run", Unit: "count", Better: "lower", From: "count:engine.tasks_run"},
	{Name: "engine.transfer_drops", Unit: "count", Better: "lower", From: "count:engine.transfer_drops"},
	{Name: "engine.transfer_retries", Unit: "count", Better: "lower", From: "count:engine.transfer_retries"},

	{Name: "mapreduce.run_s", Unit: "s", Better: "lower"},                                                    // suite: the six RunMapReduce calls
	{Name: "mapreduce.alloc_mb", Unit: "MB", Better: "lower"},                                                // suite: their allocation
	{Name: "mapreduce.net_over_prop", Unit: "ratio", Better: "lower", From: "count:mapreduce.net_over_prop"}, // suite: NR network bytes under MapReduce over propagation (the paper's shape: > 1)

	{Name: "apps.vdd_prop_s", Unit: "s", Better: "lower", From: "span:apps.vdd_prop"},
	{Name: "apps.vdd_mr_s", Unit: "s", Better: "lower", From: "span:apps.vdd_mr"},
	{Name: "apps.rs_prop_s", Unit: "s", Better: "lower", From: "span:apps.rs_prop"},
	{Name: "apps.rs_mr_s", Unit: "s", Better: "lower", From: "span:apps.rs_mr"},
	{Name: "apps.nr_prop_s", Unit: "s", Better: "lower", From: "span:apps.nr_prop"},
	{Name: "apps.nr_mr_s", Unit: "s", Better: "lower", From: "span:apps.nr_mr"},
	{Name: "apps.rlg_prop_s", Unit: "s", Better: "lower", From: "span:apps.rlg_prop"},
	{Name: "apps.rlg_mr_s", Unit: "s", Better: "lower", From: "span:apps.rlg_mr"},
	{Name: "apps.tc_prop_s", Unit: "s", Better: "lower", From: "span:apps.tc_prop"},
	{Name: "apps.tc_mr_s", Unit: "s", Better: "lower", From: "span:apps.tc_mr"},
	{Name: "apps.tfl_prop_s", Unit: "s", Better: "lower", From: "span:apps.tfl_prop"},
	{Name: "apps.tfl_mr_s", Unit: "s", Better: "lower", From: "span:apps.tfl_mr"},
	{Name: "apps.reference_s", Unit: "s", Better: "lower", From: "span:apps.reference"}, // the sequential Reference* results, once per set-up
	{Name: "apps.verify_s", Unit: "s", Better: "lower", From: "span:apps.verify"},       // comparing a traced repetition's results with the references

	{Name: "trace.emit_overhead", Unit: "ratio", Better: "lower"},                 // engine.run_traced_s over engine.run_s
	{Name: "trace.emit_ns_per_event", Unit: "ns/event", Better: "lower"},          // (run_traced_s - run_s) over engine.events
	{Name: "trace.write_s", Unit: "s", Better: "lower", From: "span:trace.write"}, // fanout: trace.WriteEvents into memory
	{Name: "trace.read_s", Unit: "s", Better: "lower", From: "span:trace.read"},   // fanout: trace.ReadEvents
	{Name: "trace.read_alloc_mb", Unit: "MB", Better: "lower", From: "alloc:trace.read"},
	{Name: "trace.read_events_per_s", Unit: "events/s", Better: "higher"}, // stream events over read_s
	{Name: "trace.stream_bytes", Unit: "B", Better: "lower", From: "count:trace.stream_bytes"},
	{Name: "trace.bytes_per_event", Unit: "B/event", Better: "lower"}, // stream_bytes over stream events
	{Name: "trace.summarize_s", Unit: "s", Better: "lower", From: "span:trace.summarize"},
	{Name: "trace.chrome_s", Unit: "s", Better: "lower", From: "span:trace.chrome"}, // fanout: WriteChrome to io.Discard

	{Name: "analyze.analyze_s", Unit: "s", Better: "lower", From: "span:analyze.analyze"},
	{Name: "analyze.render_s", Unit: "s", Better: "lower", From: "span:analyze.render"},                // fanout: WriteText + WriteJSON to io.Discard
	{Name: "analyze.blame_residual", Unit: "s", Better: "lower", From: "count:analyze.blame_residual"}, // fanout: |sum of blame - makespan|, virtual seconds

	{Name: "metrics.fold_s", Unit: "s", Better: "lower", From: "span:metrics.fold"}, // fanout: metrics.FromEvents, window 0.01
	{Name: "metrics.live_overhead", Unit: "ratio", Better: "lower"},                 // fanout: the traced run with a Collector attached over engine.run_traced_s
	{Name: "metrics.series", Unit: "count", Better: "lower", From: "count:metrics.series"},
	{Name: "metrics.windows", Unit: "count", Better: "lower", From: "count:metrics.windows"},

	{Name: "jobsvc.plan_s", Unit: "s", Better: "lower", From: "span:jobsvc.plan"}, // fanout set-up: NewPlanner + Planner.Jobs
	{Name: "jobsvc.run_fifo_s", Unit: "s", Better: "lower", From: "span:jobsvc.run_fifo"},
	{Name: "jobsvc.run_fair_s", Unit: "s", Better: "lower", From: "span:jobsvc.run_fair"},
	{Name: "jobsvc.run_priority_s", Unit: "s", Better: "lower", From: "span:jobsvc.run_priority"},
	{Name: "jobsvc.events", Unit: "count", Better: "lower", From: "count:jobsvc.events"}, // recorder events of the three policy runs
	{Name: "jobsvc.events_per_s", Unit: "events/s", Better: "higher"},                    // jobsvc.events over the three run times
	{Name: "jobsvc.run_alloc_mb", Unit: "MB", Better: "lower"},                           // allocation of the three runs
	{Name: "jobsvc.jobs_finished", Unit: "count", Better: "higher", From: "count:jobsvc.jobs_finished"},
	{Name: "jobsvc.preemptions", Unit: "count", Better: "lower", From: "count:jobsvc.preemptions"},
	{Name: "jobsvc.engine_ratio", Unit: "ratio", Better: "lower"}, // job-service ns/event over engine ns/event (traced, fault-free); one simulation core would make it about 1
}

// ratio is a/b, or 0 when b is 0: a layer that did not run has no rate.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// deriveLayers fills the per-layer values that are combinations of others.
// workers is the run's worker count; edges the graph's edge count.
func deriveLayers(m map[string]float64, t *tracer, workers int) {
	edges, _ := t.counter("graph.edges")
	planned, _ := t.counter("propagation.edges")
	stream, _ := t.counter("trace.stream_events")

	var bisectInReps, repWall float64
	for i, s := range t.spans {
		if s.Rep <= 0 {
			continue
		}
		switch s.Name {
		case "partition.bisect":
			bisectInReps += t.selfTimes()[i]
		case "rep":
			repWall += s.End - s.Start
		}
	}
	m["partition.share"] = ratio(bisectInReps, repWall)
	m["partition.edges_per_s"] = ratio(edges, m["partition.bisect_s"])

	parts := m["partition.bisect_s"] + m["storage.build_s"] + m["partition.place_s"] + m["storage.replicas_s"]
	if m["core.build_s"] > 0 {
		m["core.build_over_parts"] = ratio(m["core.build_s"], parts)
	}

	m["propagation.pool_speedup"] = ratio(m["propagation.plan_serial_s"], m["propagation.plan_s"])
	if m["propagation.pool_speedup"] > 0 {
		m["propagation.serial_fraction"] = amdahlSerialFraction(m["propagation.pool_speedup"], workers)
	}
	m["propagation.edges_per_s"] = ratio(planned, m["propagation.plan_s"])

	m["engine.events_per_s"] = ratio(m["engine.events"], m["engine.run_traced_s"])
	m["trace.emit_overhead"] = ratio(m["engine.run_traced_s"], m["engine.run_s"])
	m["trace.emit_ns_per_event"] = ratio((m["engine.run_traced_s"]-m["engine.run_s"])*1e9, m["engine.events"])
	m["trace.read_events_per_s"] = ratio(stream, m["trace.read_s"])
	m["trace.bytes_per_event"] = ratio(m["trace.stream_bytes"], stream)
	m["metrics.live_overhead"] = ratio(t.seconds("engine.run_live"), m["engine.run_traced_s"])

	for _, app := range []string{"vdd", "rs", "nr", "rlg", "tc", "tfl"} {
		m["mapreduce.run_s"] += m["apps."+app+"_mr_s"]
		m["mapreduce.alloc_mb"] += t.allocMB("apps." + app + "_mr")
	}

	var jobsvcSeconds float64
	for _, pol := range []string{"fifo", "fair", "priority"} {
		jobsvcSeconds += m["jobsvc.run_"+pol+"_s"]
		m["jobsvc.run_alloc_mb"] += t.allocMB("jobsvc.run_" + pol)
	}
	m["jobsvc.events_per_s"] = ratio(m["jobsvc.events"], jobsvcSeconds)
	m["jobsvc.engine_ratio"] = ratio(ratio(jobsvcSeconds, m["jobsvc.events"]), ratio(m["engine.run_traced_s"], m["engine.events"]))
}
