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

func main() { os.Exit(tool(os.Stdout, os.Stderr).Run(os.Args[1:])) }

func tool(stdout, stderr io.Writer) cli.Tool {
	fs := cli.Flags("surfer-submit", stderr)
	var (
		gen         = fs.Int("gen", 0, "generate a workload of this many jobs and write it to -out")
		tenants     = fs.Int("tenants", 3, "tenant count for -gen")
		maxPriority = fs.Int("max-priority", 2, "highest priority for -gen")
		out         = fs.String("out", "jobs.json", "output path for -gen")
		jobsPath    = fs.String("jobs", "", "workload file to plan and run")
		policy      = fs.String("policy", "fifo", "scheduling policy: fifo, fair, priority")
		concurrency = fs.Int("concurrency", 2, "concurrent job slots")
		queueLimit  = fs.Int("queue-limit", 0, "admission queue bound (0 = unlimited)")
		vertices    = fs.Int("vertices", 1<<12, "synthetic graph vertices of the shared deployment")
		machines    = fs.Int("machines", 8, "machines in the shared T3 cluster")
		levels      = fs.Int("levels", 4, "log2 of partition count")
		seed        = fs.Int64("seed", 42, "random seed (generation, partitioning, topology)")
		workers     = fs.Int("workers", 0, "worker pool size for partitioning and planning (0 = GOMAXPROCS, 1 = serial); results are identical for every value")
		faultsPath  = fs.String("faults", "", "JSON fault-schedule file injected into the run")
		eventsOut   = fs.String("events", "", "write the raw event stream (with topology header) to this file for surfer-analyze")
	)
	return cli.Tool{Flags: fs,
		Reads: []cli.Cond{{Flags: []string{"tenants", "max-priority", "out"}, By: "gen", Say: "%s: the -jobs replay does not read it"},
			cli.Unless("gen", "jobs", "policy", "concurrency", "queue-limit", "vertices", "machines", "levels", "workers", "faults", "events")},
		Check: map[string]func(string) error{
			"gen":          cli.NonNegative,
			"tenants":      cli.Positive,
			"max-priority": cli.NonNegative,
			"policy":       cli.Parse(jobsvc.ParsePolicy),
			"concurrency":  cli.Positive,
			"queue-limit":  cli.NonNegative,
			"vertices":     cli.NonNegative,
			"workers":      cli.NonNegative,
		},
		Body: func([]string) error {
			if *gen > 0 { // a seeded arrival workload, written to -out
				wl := jobsvc.GenerateWorkload(jobsvc.GenConfig{Jobs: *gen, Tenants: *tenants, MaxPriority: *maxPriority, Seed: *seed})
				if err := cli.WriteFile(*out, func(w io.Writer) error { return jobsvc.WriteWorkload(w, wl) }); err != nil {
					return err
				}
				fmt.Fprintf(stdout, "wrote %s (%d jobs, %d tenants)\n", *out, len(wl.Jobs), *tenants)
				return nil
			}
			// Or a replay: plan the jobs file on a shared deployment, replay it
			// through the job service and print per-job latency, wait and
			// fairness.
			if *jobsPath == "" {
				return cli.Usage(errors.New("nothing to do: pass -gen N to generate a workload or -jobs FILE to run one"))
			}
			pol, _ := jobsvc.ParsePolicy(*policy)
			f, err := os.Open(*jobsPath)
			if err != nil {
				return err
			}
			wl, err := jobsvc.ReadWorkload(f)
			f.Close()
			if err != nil {
				return fmt.Errorf("%s: %v", *jobsPath, err)
			}

			topo, err := cluster.ByName("t3", *machines, 0, 0, *seed)
			if err != nil {
				return fmt.Errorf("-machines: %w", err)
			}
			g := graph.Social(graph.DefaultSocial(*vertices, *seed))
			planner, err := jobsvc.NewPlanner(jobsvc.PlannerConfig{
				Graph: g, Topo: topo, Levels: *levels, Seed: *seed, Workers: *workers,
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
				Concurrency: *concurrency,
				QueueLimit:  *queueLimit,
			}
			if *faultsPath != "" {
				if cfg.Faults, err = fault.Load(*faultsPath); err != nil {
					return err
				}
			}
			var rec *trace.Recorder
			if *eventsOut != "" {
				rec = trace.NewRecorder()
				cfg.Trace = rec
			}

			// The plans are the planner's own, so what the service refuses is the
			// fault file: a kill, or an entry the planner's cluster does not fit.
			recs, err := jobsvc.Run(cfg, jobs)
			if err != nil && *faultsPath != "" {
				return fmt.Errorf("%s: %v", *faultsPath, err)
			}
			if err != nil {
				return err
			}

			fmt.Fprintf(stdout, "cluster: %s; policy: %s; concurrency: %d; %d jobs from %s\n",
				topo, pol, cfg.Concurrency, len(jobs), *jobsPath)
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

			if *eventsOut != "" {
				err := cli.WriteFile(*eventsOut, func(w io.Writer) error { return trace.WriteEvents(w, trace.TopoOf(topo), rec.Events()) })
				if err != nil {
					return err
				}
				fmt.Fprintf(stdout, "events: %s (%d events)\n", *eventsOut, rec.Len())
			}
			return nil
		}}
}
