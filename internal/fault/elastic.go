package fault

import "repro/internal/cluster"

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
// ordinary machine death (a Kill's semantics: lost tasks fail over to
// replicas after heartbeat detection).
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
