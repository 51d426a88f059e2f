// surfer-submit drives the multi-tenant job service: it generates seeded
// arrival workloads ("surfer-jobs" files) and replays them through the
// shared-cluster scheduler under a chosen policy, printing per-job latency,
// wait, and fairness.
//
// Usage:
//
//	surfer-submit -gen 20 -tenants 4 -seed 7 -out jobs.json
//	surfer-submit -jobs jobs.json -policy fair -concurrency 2
//	surfer-submit -jobs jobs.json -policy priority -queue-limit 4 -events ev.json
package main

import (
	"errors"
	"fmt"
	"io"
	"os"

	"repro/cmd/internal/cli"
	"repro/internal/cluster"
	"repro/internal/fault"
	"repro/internal/graph"
	"repro/internal/jobsvc"
	"repro/internal/trace"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := cli.Flags("surfer-submit", stderr)
	var (
		sub         submission
		gen         = fs.Int("gen", 0, "generate a workload of this many jobs and write it to -out")
		tenants     = fs.Int("tenants", 3, "tenant count for -gen")
		maxPriority = fs.Int("max-priority", 2, "highest priority for -gen")
		out         = fs.String("out", "jobs.json", "output path for -gen")
	)
	fs.StringVar(&sub.jobsPath, "jobs", "", "workload file to plan and run")
	fs.StringVar(&sub.policy, "policy", "fifo", "scheduling policy: fifo, fair, priority")
	fs.IntVar(&sub.concurrency, "concurrency", 2, "concurrent job slots")
	fs.IntVar(&sub.queueLimit, "queue-limit", 0, "admission queue bound (0 = unlimited)")
	fs.IntVar(&sub.vertices, "vertices", 1<<12, "synthetic graph vertices of the shared deployment")
	fs.IntVar(&sub.machines, "machines", 8, "machines in the shared T3 cluster")
	fs.IntVar(&sub.levels, "levels", 4, "log2 of partition count")
	fs.Int64Var(&sub.seed, "seed", 42, "random seed (generation, partitioning, topology)")
	fs.IntVar(&sub.workers, "workers", 0, "worker pool size for partitioning and planning (0 = GOMAXPROCS, 1 = serial); results are identical for every value")
	fs.StringVar(&sub.faultsPath, "faults", "", "JSON fault-schedule file injected into the run")
	fs.StringVar(&sub.eventsOut, "events", "", "write the raw event stream (with topology header) to this file for surfer-analyze")
	return cli.Run(fs, args, stderr, cli.NoArgs(func() error {
		if err := cli.Workers(sub.workers); err != nil {
			return err
		}
		if *gen > 0 {
			if err := cli.Unread(fs, "-gen", "jobs", "policy", "concurrency", "queue-limit", "vertices", "machines", "levels", "workers", "faults", "events"); err != nil {
				return err
			}
			if *tenants <= 0 {
				return fmt.Errorf("-tenants %d: must be positive", *tenants)
			}
			if *maxPriority < 0 {
				return fmt.Errorf("-max-priority %d: must not be negative", *maxPriority)
			}
			return generate(stdout, *out, jobsvc.GenConfig{Jobs: *gen, Tenants: *tenants, MaxPriority: *maxPriority, Seed: sub.seed})
		}
		if err := cli.Unread(fs, "the -jobs replay", "gen", "tenants", "max-priority", "out"); err != nil {
			return err
		}
		return submit(stdout, sub)
	}))
}

// generate writes a seeded arrival workload to path.
func generate(stdout io.Writer, path string, cfg jobsvc.GenConfig) error {
	wl := jobsvc.GenerateWorkload(cfg)
	if err := cli.WriteFile(path, func(w io.Writer) error { return jobsvc.WriteWorkload(w, wl) }); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "wrote %s (%d jobs, %d tenants)\n", path, len(wl.Jobs), cfg.Tenants)
	return nil
}

// submission is one replay of a jobs file: the flags of the -jobs mode.
type submission struct {
	jobsPath, policy, faultsPath, eventsOut             string
	concurrency, queueLimit, vertices, machines, levels int
	seed                                                int64
	workers                                             int
}

// submit plans the jobs file on a shared deployment, replays it through the
// job service and prints per-job latency, wait and fairness.
func submit(stdout io.Writer, sub submission) error {
	if sub.jobsPath == "" {
		return cli.Usage(errors.New("nothing to do: pass -gen N to generate a workload or -jobs FILE to run one"))
	}
	if sub.concurrency <= 0 {
		return fmt.Errorf("-concurrency %d: must be positive", sub.concurrency)
	}
	if sub.queueLimit < 0 {
		return fmt.Errorf("-queue-limit %d: must not be negative", sub.queueLimit)
	}
	if sub.vertices < 0 {
		return fmt.Errorf("-vertices %d: must not be negative", sub.vertices)
	}
	pol, err := jobsvc.ParsePolicy(sub.policy)
	if err != nil {
		return err
	}
	f, err := os.Open(sub.jobsPath)
	if err != nil {
		return err
	}
	wl, err := jobsvc.ReadWorkload(f)
	f.Close()
	if err != nil {
		return fmt.Errorf("%s: %v", sub.jobsPath, err)
	}

	topo, err := cluster.ByName("t3", sub.machines, 0, 0, sub.seed)
	if err != nil {
		return fmt.Errorf("-machines: %w", err)
	}
	g := graph.Social(graph.DefaultSocial(sub.vertices, sub.seed))
	planner, err := jobsvc.NewPlanner(jobsvc.PlannerConfig{
		Graph: g, Topo: topo, Levels: sub.levels, Seed: sub.seed, Workers: sub.workers,
	})
	if err != nil {
		return err
	}
	jobs, err := planner.Jobs(wl)
	if err != nil {
		return err
	}

	cfg := jobsvc.Config{
		Topo:        topo,
		Policy:      pol,
		Concurrency: sub.concurrency,
		QueueLimit:  sub.queueLimit,
	}
	if sub.faultsPath != "" {
		if cfg.Faults, err = fault.Load(sub.faultsPath); err != nil {
			return err
		}
	}
	var rec *trace.Recorder
	if sub.eventsOut != "" {
		rec = trace.NewRecorder()
		cfg.Trace = rec
	}

	// The plans are the planner's own, so what the service refuses is the
	// fault file: a kill, or an entry the planner's cluster does not fit.
	recs, err := jobsvc.Run(cfg, jobs)
	if err != nil && sub.faultsPath != "" {
		return fmt.Errorf("%s: %v", sub.faultsPath, err)
	}
	if err != nil {
		return err
	}

	fmt.Fprintf(stdout, "cluster: %s; policy: %s; concurrency: %d; %d jobs from %s\n",
		topo, pol, cfg.Concurrency, len(jobs), sub.jobsPath)
	fmt.Fprintf(stdout, "%-10s %-10s %4s %10s %12s %12s %8s\n",
		"job", "tenant", "prio", "status", "wait(s)", "latency(s)", "preempt")
	for _, r := range recs {
		status := "done"
		if r.Rejected {
			status = "rejected"
		}
		fmt.Fprintf(stdout, "%-10s %-10s %4d %10s %12.4f %12.4f %8d\n",
			r.ID, r.Tenant, r.Priority, status, r.WaitSeconds(), r.Latency(), r.Preemptions)
	}
	names, service := jobsvc.TenantService(recs)
	fmt.Fprintf(stdout, "p50 latency: %.4f s, p99 latency: %.4f s, mean wait: %.4f s\n",
		jobsvc.LatencyPercentile(recs, 0.50), jobsvc.LatencyPercentile(recs, 0.99), jobsvc.MeanWait(recs))
	fmt.Fprintf(stdout, "Jain fairness over %d tenants: %.3f\n", len(names), jobsvc.JainIndex(service))

	if sub.eventsOut != "" {
		err := cli.WriteFile(sub.eventsOut, func(w io.Writer) error { return trace.WriteEvents(w, trace.TopoOf(topo), rec.Events()) })
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "events: %s (%d events)\n", sub.eventsOut, rec.Len())
	}
	return nil
}
