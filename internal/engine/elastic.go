package engine

import (
	"repro/internal/cluster"
	"repro/internal/partition"
	"repro/internal/trace"
)

// Elastic cluster membership (fault.MachineJoin / fault.MachineDrain),
// handled entirely inside the serial event loop so the determinism contract
// survives: joins wake dormant machines, drains trigger live partition
// migration as ordinary NIC-charged transfers, and a drain whose deadline
// expires before the last byte lands degrades into the existing machine-
// death/failover path.

// state is a machine's membership. A machine no join names starts live, a
// join target dormant. A join makes a dormant machine live. A drain makes a
// live machine draining; its last landed migration makes it retired (at
// once when nothing needs to move), its deadline passing first dead. A kill
// makes any state dead, and dead is final: whatever the earlier state
// awaited is ignored. Only a live machine takes tasks, failovers, backups
// and partitions.
type state uint8

const (
	live state = iota
	dormant
	draining
	retired
	dead
)

// unavailable reports whether machine m cannot accept work and data right
// now: it is not live. It is the exclusion predicate for placement,
// failover, speculation and migration targeting.
func (r *Runner) unavailable(m cluster.MachineID) bool {
	return r.machines[m].state != live
}

// homeOf reports the current machine of partition p: the migration overlay
// when the partition has moved, else the replica primary.
func (r *Runner) homeOf(p partition.PartID) cluster.MachineID {
	if h, ok := r.home[p]; ok {
		return h
	}
	return r.cfg.Replicas.Primary(p)
}

// partBytes is the migration volume of partition p (0 when PartBytes is
// not configured: the rehome is then instantaneous).
func (r *Runner) partBytes(p partition.PartID) int64 {
	if int(p) >= 0 && int(p) < len(r.cfg.PartBytes) {
		return r.cfg.PartBytes[p]
	}
	return 0
}

// place resolves where a task runs: a migrated partition follows its new
// home, an available pinned machine keeps the task, anything else fails
// over to an available replica. With no elastic events this reduces exactly
// to the historical dead-primary failover.
func (r *Runner) place(t *Task) (cluster.MachineID, error) {
	if t.Part != NoPart && r.cfg.Replicas != nil {
		if h, ok := r.home[t.Part]; ok && !r.unavailable(h) {
			return h, nil
		}
	}
	if !r.unavailable(t.Machine) {
		return t.Machine, nil
	}
	return r.failover(t)
}

// onJoin brings a dormant machine live: from this instant it accepts
// failovers, speculation backups and migrated partitions, and its NICs
// (capped at its configured line rate) carry traffic.
func (sr *StageRun) onJoin(e *event) {
	mc := &sr.r.machines[e.machine]
	if mc.state != dormant {
		sr.popSeq = trace.None
		return
	}
	mc.state = live
	sr.m.Joins++
	// A join is exogenous, like a failure: anchor it to the enclosing stage.
	sr.popSeq = sr.emit(trace.Event{Kind: trace.KindMachineJoin,
		Cause: sr.beginSeq, Machine: int(e.machine), Dst: trace.None, Part: trace.None, Time: e.at})
}

// onDrain starts a graceful decommission: the machine stops accepting new
// work (it is unavailable from here on; tasks already queued on it finish),
// every partition homed on it starts migrating to a survivor, and the
// deadline is armed. A machine with nothing to migrate retires on the spot.
// Only a live machine drains: a dormant one's drain waits for its join (arm
// pushes it again for the next stage).
func (sr *StageRun) onDrain(e *event) {
	m := e.machine
	mc := &sr.r.machines[m]
	if mc.state != live {
		sr.popSeq = trace.None
		return
	}
	mc.state = draining
	sr.m.Drains++
	drainSeq := sr.emit(trace.Event{Kind: trace.KindMachineDrain,
		Cause: sr.beginSeq, Machine: int(m), Dst: trace.None, Part: trace.None,
		Time: e.at, End: e.deadline})
	sr.popSeq = drainSeq
	mc.stateSeq = drainSeq
	mc.outstanding = sr.startMigrations(m, e.at, drainSeq)
	if mc.outstanding == 0 {
		mc.state = retired
		return
	}
	// The deadline event does not hold the stage barrier: if every
	// migration lands first the machine retires and the deadline is moot
	// (a stale pop is ignored; an unpopped event is cancelled with the stage).
	sr.push(event{at: e.deadline, kind: evDrainDeadline, machine: m})
}

// startMigrations issues one live migration per partition homed on the
// draining machine, in PartID order for determinism, and returns how many
// are in flight. Migrations ride the ordinary transfer machinery — NIC
// serialization, link degradation, drops and retries all apply — and each
// holds the stage barrier via inflight until it lands. Zero-byte partitions
// (no PartBytes configured) rehome instantly but still leave a trace event.
func (sr *StageRun) startMigrations(m cluster.MachineID, at float64, drainSeq int) int {
	r := sr.r
	if r.cfg.Replicas == nil {
		return 0
	}
	outstanding := 0
	for p := range r.cfg.Replicas.Machines {
		pid := partition.PartID(p)
		if r.homeOf(pid) != m {
			continue
		}
		dst, err := r.cfg.Replicas.MigrationTarget(pid, r.cfg.Topo.NumMachines(),
			func(mm cluster.MachineID) bool { return !r.unavailable(mm) })
		if err != nil {
			// Nowhere to migrate right now: leave the partition in place.
			// If nothing frees up, the deadline fires and the death path
			// recovers through replicas as usual.
			continue
		}
		bytes := r.partBytes(pid)
		if bytes <= 0 {
			r.home[pid] = dst
			sr.m.Migrations++
			sr.emit(trace.Event{Kind: trace.KindPartitionMigrate,
				Cause: drainSeq, Machine: int(m), Dst: int(dst), Part: int(pid),
				Time: at, Start: at, End: at})
			continue
		}
		sr.inflight++
		outstanding++
		sr.dispatch(pendingTransfer{src: m, dst: dst, bytes: bytes, part: pid,
			cause: drainSeq, migrate: true}, at)
	}
	return outstanding
}

// onMigrateDone commits one landed partition migration: the partition is
// rehomed to its destination and the machine retires once its last
// migration lands. Retired is distinct from dead — Deaths() stays
// untouched, so multi-iteration drivers do not mistake a clean drain for a
// failure and roll back to a checkpoint. An arrival after the source died
// (at its drain deadline or by a kill) is stale — the copy never completed;
// the partition recovers through the failover path instead.
func (sr *StageRun) onMigrateDone(e *event) {
	ts := e.transfer
	mc := &sr.r.machines[ts.src]
	if mc.state != draining {
		return
	}
	sr.m.Migrations++
	sr.m.MigrationBytes += ts.bytes
	sr.r.home[ts.part] = ts.dst
	if mc.outstanding--; mc.outstanding == 0 {
		mc.state = retired
	}
}

// onDrainDeadline fires at a drain's deadline: if migrations are still in
// flight the drain degrades into an ordinary machine death whose failure
// event is caused by the machine-drain, and the standard lost-task /
// heartbeat / failover recovery takes over. A deadline whose drain already
// retired (or died) is stale and ignored.
func (sr *StageRun) onDrainDeadline(e *event) {
	mc := &sr.r.machines[e.machine]
	if mc.state != draining {
		sr.popSeq = trace.None
		return
	}
	sr.failMachine(e.machine, e.at, mc.stateSeq)
}
