package fault

import (
	"fmt"
	"sort"

	"repro/internal/cluster"
)

// Elastic cluster membership: production clouds do not only break, they
// grow and shrink — spot instances arrive and are reclaimed, autoscalers
// add and drain capacity. MachineJoin and MachineDrain extend the
// deterministic fault plan with those events, keeping the same contract as
// every other Schedule entry: a pure description of *when* membership
// changes, replayed identically by the engine's serial event loop for every
// worker count.
//
// Convention: a machine named in a MachineJoin starts *dormant* — it exists
// in the topology's bandwidth matrix (provisioned capacity) but holds no
// partitions, runs no tasks and backs no failovers until its join time.
// All other topology machines are live from t = 0.

// MachineJoin adds a provisioned-but-dormant machine to the cluster at a
// virtual time. From At on, the machine accepts migrated partitions, acts
// as a failover and speculation target, and its NICs carry traffic.
type MachineJoin struct {
	// Machine is the joining machine's ID in the (expanded) topology.
	Machine cluster.MachineID `json:"machine"`
	// At is the join time in virtual seconds.
	At float64 `json:"at"`
	// NICs is the machine's NIC line rate in bytes/second; transfers
	// touching the machine run at min(link bandwidth, NICs). Zero means
	// the full topology rate — set it below the link rate to model cheap
	// spot instances with slower network.
	NICs float64 `json:"nics,omitempty"`
}

// MachineDrain begins a graceful decommission of a live machine at a
// virtual time: the machine stops accepting new tasks, its partitions
// migrate live to surviving machines (ordinary NIC-charged transfers), and
// once the last byte lands the machine retires with nothing lost. A drain
// whose Deadline passes before migration completes degrades into an
// ordinary machine death (engine.Failure semantics: lost tasks fail over
// to replicas after heartbeat detection).
type MachineDrain struct {
	// Machine is the machine being decommissioned.
	Machine cluster.MachineID `json:"machine"`
	// At is the drain start in virtual seconds.
	At float64 `json:"at"`
	// Deadline is the absolute virtual time by which migration must have
	// finished; at Deadline an undrained machine is killed. Required
	// (Deadline > At), so every drain terminates.
	Deadline float64 `json:"deadline"`
}

// ValidateElastic rejects malformed elastic plans before they can corrupt a
// run, mirroring engine.ValidateFailures: joins and drains must reference
// machines inside the topology, a machine may join at most once (a second
// join would join an already-live machine), a drain must target a machine
// that is live at drain time (initially live, or joined before At), drains
// must not repeat, and every drain needs a deadline after its start.
func ValidateElastic(joins []MachineJoin, drains []MachineDrain, numMachines int) error {
	joinAt := make(map[cluster.MachineID]float64, len(joins))
	for i, j := range joins {
		if int(j.Machine) < 0 || int(j.Machine) >= numMachines {
			return fmt.Errorf("fault: join %d references machine %d outside [0,%d)", i, j.Machine, numMachines)
		}
		if j.At < 0 {
			return fmt.Errorf("fault: join %d of machine %d at negative time %g", i, j.Machine, j.At)
		}
		if j.NICs < 0 {
			return fmt.Errorf("fault: join %d of machine %d has negative NIC rate %g", i, j.Machine, j.NICs)
		}
		if _, dup := joinAt[j.Machine]; dup {
			return fmt.Errorf("fault: join %d joins machine %d, which is already live (joined earlier)", i, j.Machine)
		}
		joinAt[j.Machine] = j.At
	}
	drained := make(map[cluster.MachineID]bool, len(drains))
	for i, d := range drains {
		if int(d.Machine) < 0 || int(d.Machine) >= numMachines {
			return fmt.Errorf("fault: drain %d references machine %d outside [0,%d)", i, d.Machine, numMachines)
		}
		if d.At < 0 {
			return fmt.Errorf("fault: drain %d of machine %d at negative time %g", i, d.Machine, d.At)
		}
		if d.Deadline <= d.At {
			return fmt.Errorf("fault: drain %d of machine %d has deadline %g <= start %g; migration could never finish", i, d.Machine, d.Deadline, d.At)
		}
		if at, joins := joinAt[d.Machine]; joins && at >= d.At {
			return fmt.Errorf("fault: drain %d drains machine %d at %g, before it joins at %g", i, d.Machine, d.At, at)
		}
		if drained[d.Machine] {
			return fmt.Errorf("fault: duplicate drain for machine %d", d.Machine)
		}
		drained[d.Machine] = true
	}
	return nil
}

// AcceptingAt reports whether machine m accepts new task assignments at
// time t under this schedule: a join target is not live before its join
// time, and a draining machine stops accepting new work from its drain
// start (already-running work finishes). A pure function of (m, t), so
// schedulers that consult it at barrier points stay deterministic.
func (s *Schedule) AcceptingAt(m cluster.MachineID, t float64) bool {
	if s == nil {
		return true
	}
	for i := range s.Joins {
		if s.Joins[i].Machine == m && t < s.Joins[i].At {
			return false
		}
	}
	for i := range s.Drains {
		if s.Drains[i].Machine == m && t >= s.Drains[i].At {
			return false
		}
	}
	return true
}

// SortedJoins returns the schedule's joins ordered by (At, Machine), the
// deterministic arming order the engine uses.
func (s *Schedule) SortedJoins() []MachineJoin {
	if s == nil || len(s.Joins) == 0 {
		return nil
	}
	out := append([]MachineJoin(nil), s.Joins...)
	sort.Slice(out, func(i, j int) bool {
		if out[i].At != out[j].At {
			return out[i].At < out[j].At
		}
		return out[i].Machine < out[j].Machine
	})
	return out
}

// SortedDrains returns the schedule's drains ordered by (At, Machine).
func (s *Schedule) SortedDrains() []MachineDrain {
	if s == nil || len(s.Drains) == 0 {
		return nil
	}
	out := append([]MachineDrain(nil), s.Drains...)
	sort.Slice(out, func(i, j int) bool {
		if out[i].At != out[j].At {
			return out[i].At < out[j].At
		}
		return out[i].Machine < out[j].Machine
	})
	return out
}
