package metrics

import (
	"repro/internal/cluster"
	"repro/internal/trace"
)

// Job windows: the per-engine-job aggregation the autoscaler consumes (one
// window per job run in stream order — per iteration for propagation runs),
// distinct from the Collector's fixed-width windows. Factored here so the
// autoscale policy and the dashboards observe the same numbers through the
// same fold.

// JobWindow is one engine job's level-0 utilization summary.
type JobWindow struct {
	// Job is the engine job name (its KindJobBegin's Job field).
	Job string
	// Start / End bracket the job; only completed jobs with positive span
	// are reported (an unfinished job carries no signal).
	Start, End float64
	// MaxLevel0Util is the hottest level-0 directed link's busy fraction of
	// the window: transfer and migration busy seconds ÷ window span,
	// maximized over the links crossing the topology's top-level bisection.
	MaxLevel0Util float64
}

// JobWindows folds a stream into per-job level-0 utilization windows.
// Transfers and migrations are charged to the window of the job run
// trace.Label files them under — concurrent jobs each accumulate their own
// traffic, and one sent after its run's end still counts toward that run;
// machine pairs outside the topology or below level 0 are ignored,
// mirroring the link report.
func JobWindows(events []trace.Event, topo *cluster.Topology) []JobWindow {
	n := topo.NumMachines()
	lvl := cluster.BisectionLevels(topo)

	runs := trace.Label(events)
	busy := make([]map[[2]int]float64, len(runs.Jobs)) // per job run, per level-0 link
	for i := range events {
		ev := &events[i]
		if ev.Kind != trace.KindTransfer && ev.Kind != trace.KindPartitionMigrate {
			continue
		}
		j := runs.Job[i]
		if j < 0 || ev.Machine < 0 || ev.Dst < 0 || ev.Machine >= n || ev.Dst >= n || lvl[ev.Machine][ev.Dst] != 0 {
			continue
		}
		if busy[j] == nil {
			busy[j] = make(map[[2]int]float64)
		}
		busy[j][[2]int{ev.Machine, ev.Dst}] += ev.End - ev.Start
	}

	var out []JobWindow
	for j, run := range runs.Jobs {
		if run.End <= run.Begin {
			continue // unfinished or instantaneous window: no signal
		}
		span := run.End - run.Begin
		maxUtil := 0.0
		for _, b := range busy[j] {
			// A max over map values is order-independent, so ranging the map
			// is safe here.
			if u := b / span; u > maxUtil {
				maxUtil = u
			}
		}
		out = append(out, JobWindow{Job: run.Name, Start: run.Begin, End: run.End, MaxLevel0Util: maxUtil})
	}
	return out
}
