package analyze

import (
	"fmt"
	"sort"

	"repro/internal/cluster"
	"repro/internal/fault"
	"repro/internal/metrics"
	"repro/internal/trace"
)

// Utilization-driven autoscaling (ROADMAP: elasticity; "Elastic Resource
// Allocation for Distributed Graph Processing Platforms" argues scaling
// decisions should follow per-superstep load). The policy reads the same
// signal the link report computes — per-directed-link utilization at
// bisection level 0, the top-level cut that is the scarcest bandwidth in the
// hierarchy — per job window (one window per engine job, i.e. per iteration
// for propagation runs): when any level-0 link stays saturated for two
// consecutive windows the cluster should grow, and when the whole level
// stays idle for two windows it should shrink.
//
// Autoscale is a pure function of (events, topology), so its plan
// inherits the determinism contract and can be fed straight back into a
// re-run as a fault file with joins and drains.

// The recommendation rule: a window whose hottest level-0 directed link is
// busy (seconds ÷ window length) at least saturateUtil of the time is
// saturated, at most idleUtil idle, and streak such windows in a row trigger
// a join (drain).
const (
	saturateUtil = 0.8
	idleUtil     = 0.05
	streak       = 2
)

// WindowUtil is the per-window diagnostic behind a recommendation: one row
// per engine job in stream order.
type WindowUtil struct {
	Job   string  `json:"job"`
	Start float64 `json:"start"`
	End   float64 `json:"end"`
	// MaxLevel0Util is the hottest level-0 directed link's busy fraction
	// of this window.
	MaxLevel0Util float64 `json:"max_level0_util"`
	// Saturated / Idle report how the policy classified the window.
	Saturated bool `json:"saturated,omitempty"`
	Idle      bool `json:"idle,omitempty"`
}

// AutoscalePlan is the policy's output: elastic events ready to replay.
type AutoscalePlan struct {
	Windows []WindowUtil         `json:"windows"`
	Joins   []fault.MachineJoin  `json:"joins,omitempty"`
	Drains  []fault.MachineDrain `json:"drains,omitempty"`
}

// Schedule converts the plan into a fault schedule, so a recommended scaling
// action replays with `surfer-run -fail plan.json`.
func (pl *AutoscalePlan) Schedule() *fault.Schedule {
	return &fault.Schedule{Joins: pl.Joins, Drains: pl.Drains}
}

// Autoscale applies the policy to a trace: per job window it reads the
// hottest level-0 directed link's utilization (the metrics package's
// JobWindows fold — the same numbers the dashboards observe), then
// recommends one join per saturation streak (the next provisioned machine
// ID past the topology) and one drain per idle streak (the least-loaded
// machine by task busy seconds, never machine 0, never a machine already
// recommended for drain).
func Autoscale(events []trace.Event, topo *cluster.Topology) (*AutoscalePlan, error) {
	if topo == nil {
		return nil, fmt.Errorf("analyze: autoscale needs the trace's topology header")
	}
	if err := validate(events); err != nil {
		return nil, err
	}
	n := topo.NumMachines()
	wins := metrics.JobWindows(events, topo)

	// Least-loaded machine over the whole stream, for drain targeting.
	compute := machineCompute(events)

	plan := &AutoscalePlan{}
	sat, idle := 0, 0
	nextJoin := cluster.MachineID(n)
	drained := make(map[cluster.MachineID]bool)
	for _, w := range wins {
		span := w.End - w.Start
		maxUtil := w.MaxLevel0Util
		wu := WindowUtil{Job: w.Job, Start: w.Start, End: w.End, MaxLevel0Util: maxUtil}
		if maxUtil >= saturateUtil {
			wu.Saturated = true
			sat++
			idle = 0
		} else if maxUtil <= idleUtil {
			wu.Idle = true
			idle++
			sat = 0
		} else {
			sat, idle = 0, 0
		}
		plan.Windows = append(plan.Windows, wu)
		if sat >= streak {
			// The bisection stayed saturated for a streak: grow. The join
			// target is the next machine past the current topology — the
			// caller expands the topology before replaying.
			plan.Joins = append(plan.Joins, fault.MachineJoin{At: w.End, Machine: nextJoin})
			nextJoin++
			sat = 0
		}
		if idle >= streak {
			// The bisection stayed idle for a streak: shrink by draining
			// the least-loaded machine (ties to the lowest ID; machine 0 is
			// never drained so a live machine always remains).
			m := leastLoaded(compute, n, drained)
			if m > 0 {
				drained[m] = true
				// Twice the triggering window's length, never below 1s, so
				// a healthy cluster migrates out in time.
				slack := max(2*span, 1)
				plan.Drains = append(plan.Drains, fault.MachineDrain{
					At: w.End, Machine: m, Deadline: w.End + slack,
				})
			}
			idle = 0
		}
	}
	sort.Slice(plan.Drains, func(i, j int) bool {
		if plan.Drains[i].At != plan.Drains[j].At {
			return plan.Drains[i].At < plan.Drains[j].At
		}
		return plan.Drains[i].Machine < plan.Drains[j].Machine
	})
	return plan, nil
}

// leastLoaded returns the machine with the smallest task busy time (ties to
// the lowest ID), skipping machine 0 and already-drained machines; 0 when
// no candidate remains.
func leastLoaded(compute []float64, n int, drained map[cluster.MachineID]bool) cluster.MachineID {
	best := cluster.MachineID(0)
	bestV := 0.0
	for i := 1; i < n; i++ {
		m := cluster.MachineID(i)
		if drained[m] {
			continue
		}
		v := 0.0
		if i < len(compute) {
			v = compute[i]
		}
		if best == 0 || v < bestV {
			best, bestV = m, v
		}
	}
	return best
}
