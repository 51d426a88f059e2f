package bench

import (
	"fmt"
	"io"

	"repro/internal/cluster"
	"repro/internal/jobsvc"
)

// The multitenant benchmark runs the same seeded arrival workload through
// the job service once per scheduling policy on one shared deployment —
// the cloud premise of the paper pushed one level up: not one job on a
// shared network, but many tenants' jobs on a shared cluster. Gated
// metrics are the deterministic virtual-time aggregates (makespan, latency
// percentiles, mean wait); fairness is reported but not gated because
// higher is better.

// The workload every policy replays: ten jobs of three tenants through two
// job slots — small enough for CI, busy enough that policies disagree. Its
// seed is its own, so the deployment (Scale.Seed) and the arrivals vary
// independently.
const (
	multitenantJobs         = 10
	multitenantTenants      = 3
	multitenantConcurrency  = 2
	multitenantWorkloadSeed = 11
)

// MultitenantRow is one policy's aggregate outcome on the shared workload.
type MultitenantRow struct {
	Policy      jobsvc.Policy `json:"policy"`
	Makespan    float64       `json:"makespan_seconds"`
	P50         float64       `json:"p50_latency_seconds"`
	P99         float64       `json:"p99_latency_seconds"`
	MeanWait    float64       `json:"mean_wait_seconds"`
	Jain        float64       `json:"jain_fairness"`
	Finished    int           `json:"jobs_finished"`
	RejectedN   int           `json:"jobs_rejected"`
	Preemptions int           `json:"preemptions"`
}

// Multitenant plans the workload once on a shared T3 deployment of the
// scale and replays it under every policy.
func Multitenant(s Scale) ([]MultitenantRow, error) {
	topo, err := cluster.ByName("t3", s.Machines, 0, 0, s.Seed)
	if err != nil {
		return nil, err
	}
	p, err := jobsvc.NewPlanner(jobsvc.PlannerConfig{
		Graph:   s.MakeGraph(),
		Topo:    topo,
		Levels:  s.Levels,
		Seed:    s.Seed,
		Workers: s.Workers,
	})
	if err != nil {
		return nil, err
	}
	wl := jobsvc.GenerateWorkload(jobsvc.GenConfig{
		Jobs:          multitenantJobs,
		Tenants:       multitenantTenants,
		MaxPriority:   2,
		MaxIterations: 2,
		Seed:          multitenantWorkloadSeed,
	})
	jobs, err := p.Jobs(wl)
	if err != nil {
		return nil, err
	}
	var rows []MultitenantRow
	for _, pol := range jobsvc.Policies {
		recs, err := jobsvc.Run(jobsvc.Config{
			Topo:        topo,
			Policy:      pol,
			Concurrency: multitenantConcurrency,
			Trace:       s.Trace,
			Faults:      s.Faults,
			Retry:       s.Retry,
		}, jobs)
		if err != nil {
			return nil, fmt.Errorf("bench: multitenant %s: %w", pol, err)
		}
		row := MultitenantRow{
			Policy:   pol,
			P50:      jobsvc.LatencyPercentile(recs, 0.50),
			P99:      jobsvc.LatencyPercentile(recs, 0.99),
			MeanWait: jobsvc.MeanWait(recs),
		}
		_, service := jobsvc.TenantService(recs)
		row.Jain = jobsvc.JainIndex(service)
		for _, r := range recs {
			if r.Rejected {
				row.RejectedN++
				continue
			}
			row.Finished++
			row.Preemptions += r.Preemptions
			if r.Finished > row.Makespan {
				row.Makespan = r.Finished
			}
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// FromMultitenant converts policy rows into the versioned report schema:
// one entry per policy, deterministic lower-is-better aggregates gated,
// fairness and counts as info.
func FromMultitenant(rows []MultitenantRow) *Report {
	r := NewReport()
	for _, row := range rows {
		r.Entries = append(r.Entries, Entry{
			Experiment: "multitenant",
			Case:       row.Policy.String(),
			Metrics: map[string]float64{
				"makespan_seconds":    row.Makespan,
				"p50_latency_seconds": row.P50,
				"p99_latency_seconds": row.P99,
				"mean_wait_seconds":   row.MeanWait,
			},
			Info: map[string]float64{
				"jain_fairness": row.Jain,
				"jobs_finished": float64(row.Finished),
				"jobs_rejected": float64(row.RejectedN),
				"preemptions":   float64(row.Preemptions),
			},
		})
	}
	return r
}

// WriteMultitenant renders the policy comparison for the terminal.
func WriteMultitenant(w io.Writer, rows []MultitenantRow) {
	fmt.Fprintln(w, "Multi-tenant job service: one workload, every policy (shared T3 cluster)")
	fmt.Fprintf(w, "%-10s %12s %12s %12s %12s %8s %6s %6s %6s\n",
		"policy", "makespan(s)", "p50 lat(s)", "p99 lat(s)", "mean wait(s)", "jain", "done", "rej", "preempt")
	for _, row := range rows {
		fmt.Fprintf(w, "%-10s %12.4f %12.4f %12.4f %12.4f %8.3f %6d %6d %6d\n",
			row.Policy, row.Makespan, row.P50, row.P99, row.MeanWait, row.Jain,
			row.Finished, row.RejectedN, row.Preemptions)
	}
}
