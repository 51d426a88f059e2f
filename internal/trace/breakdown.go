package trace

import (
	"fmt"
	"io"
	"sort"
	"strings"
)

// Breakdown is the hierarchical metrics view of a trace: per job, per
// stage, per machine. It is computed from the event stream alone
// (Summarize), so it is consistent with any exported trace by
// construction, and — like the stream — identical for every worker count.
type Breakdown struct {
	Jobs []*JobBreakdown
	// Checkpoints / Restores count driver-level checkpoint commits and
	// rollback restores observed in the stream (they carry no machine:
	// their I/O cost appears as ordinary checkpoint/restore jobs).
	Checkpoints int
	Restores    int
	// CheckpointJobs / RestoreJobs record which job each commit / restore
	// belongs to ("ckpt-002", "restore-002", …), in stream order, so a
	// rollback replay is attributable to its iteration instead of being an
	// anonymous global count.
	CheckpointJobs []string
	RestoreJobs    []string
}

// JobBreakdown aggregates one engine job.
type JobBreakdown struct {
	Name       string
	Begin, End float64
	Stages     []*StageBreakdown
}

// StageBreakdown aggregates one stage of a job.
type StageBreakdown struct {
	Name       string
	Begin, End float64
	// Machines holds one entry per machine that did anything in the
	// stage, sorted by machine ID.
	Machines []*MachineBreakdown
}

// MachineBreakdown is the per-machine accounting within one stage (or an
// aggregate across stages; then Machine may be None).
type MachineBreakdown struct {
	Machine int
	// ComputeSeconds is task busy time (compute + local disk) on the
	// machine: the sum of task Start..End intervals.
	ComputeSeconds float64
	// EgressBusySeconds / IngressBusySeconds are the times the machine's
	// NICs were occupied by serialized transfers. Because every transfer
	// occupies exactly one egress and one ingress NIC for its duration,
	// the cluster-wide sums of the two are equal.
	EgressBusySeconds  float64
	IngressBusySeconds float64
	// EgressBytes / IngressBytes are the bytes sent / received. Each sums
	// to the engine's Metrics.NetworkBytes across all machines.
	EgressBytes  int64
	IngressBytes int64
	// StallSeconds is the total NIC queueing delay of transfers this
	// machine sent; IncastStallSeconds is the share of inbound transfers'
	// delay where this machine's ingress NIC was the binding constraint
	// (the incast signature: many senders converging on one receiver).
	StallSeconds       float64
	IncastStallSeconds float64
	// TasksRun / TasksLost / Transfers / Retries count completions,
	// failure-killed tasks, sent transfers, and re-dispatches.
	TasksRun  int
	TasksLost int
	Transfers int
	Retries   int
	// TransferDrops / TransferRetries count transfers this machine sent
	// that a transient link fault failed, and their backoff re-issues.
	TransferDrops   int
	TransferRetries int
	// Speculations counts backup task copies launched on this machine by
	// the job manager's straggler rule.
	Speculations int
	// DropStallSeconds is NIC time wasted by dropped transfers: both NICs
	// were held from the attempt's start until the sender's timeout.
	DropStallSeconds float64
	// Failed reports the machine died during the stage.
	Failed bool
}

// add folds other into m (for cross-stage/cross-job aggregation).
func (m *MachineBreakdown) add(other *MachineBreakdown) {
	m.ComputeSeconds += other.ComputeSeconds
	m.EgressBusySeconds += other.EgressBusySeconds
	m.IngressBusySeconds += other.IngressBusySeconds
	m.EgressBytes += other.EgressBytes
	m.IngressBytes += other.IngressBytes
	m.StallSeconds += other.StallSeconds
	m.IncastStallSeconds += other.IncastStallSeconds
	m.TasksRun += other.TasksRun
	m.TasksLost += other.TasksLost
	m.Transfers += other.Transfers
	m.Retries += other.Retries
	m.TransferDrops += other.TransferDrops
	m.TransferRetries += other.TransferRetries
	m.Speculations += other.Speculations
	m.DropStallSeconds += other.DropStallSeconds
	m.Failed = m.Failed || other.Failed
}

// machine finds or creates the stage's breakdown row for machine id.
func (sb *StageBreakdown) machine(id int) *MachineBreakdown {
	for _, mb := range sb.Machines {
		if mb.Machine == id {
			return mb
		}
	}
	mb := &MachineBreakdown{Machine: id}
	sb.Machines = append(sb.Machines, mb)
	return mb
}

// untracked names the synthetic job and stage that gather events whose own
// job or stage never began (there are none in engine-emitted streams).
const untracked = "(untracked)"

// Summarize folds an event stream into the job → stage → machine hierarchy:
// one job row per job run and one stage row per stage run, each event filed
// under the runs Label resolves it to. Events whose job or stage never began
// are gathered under a synthetic "(untracked)" job or stage.
func Summarize(events []Event) *Breakdown {
	b := &Breakdown{}
	runs := Label(events)
	jobs := make([]*JobBreakdown, len(runs.Jobs))
	stages := make([]*StageBreakdown, len(runs.Stages))
	var lost *JobBreakdown
	jobOf := func(j int32) *JobBreakdown {
		if j >= 0 {
			return jobs[j]
		}
		if lost == nil {
			lost = &JobBreakdown{Name: untracked}
			b.Jobs = append(b.Jobs, lost)
		}
		return lost
	}
	strays := make(map[*JobBreakdown]*StageBreakdown) // each job's untracked stage
	row := func(i int) *StageBreakdown {
		if s := runs.Stage[i]; s >= 0 {
			return stages[s]
		}
		jb := jobOf(runs.Job[i])
		if strays[jb] == nil {
			strays[jb] = &StageBreakdown{Name: untracked}
			jb.Stages = append(jb.Stages, strays[jb])
		}
		return strays[jb]
	}
	for i := range events {
		ev := &events[i]
		switch ev.Kind {
		case KindJobBegin:
			j := runs.Job[i]
			jobs[j] = &JobBreakdown{Name: ev.Job, Begin: ev.Time, End: runs.Jobs[j].End}
			b.Jobs = append(b.Jobs, jobs[j])
		case KindStageBegin:
			s, jb := runs.Stage[i], jobOf(runs.Job[i])
			stages[s] = &StageBreakdown{Name: ev.Stage, Begin: ev.Time, End: runs.Stages[s].End}
			jb.Stages = append(jb.Stages, stages[s])
		case KindTaskEnd:
			mb := row(i).machine(ev.Machine)
			mb.ComputeSeconds += ev.End - ev.Start
			mb.TasksRun++
		case KindTaskLost:
			row(i).machine(ev.Machine).TasksLost++
		case KindTransfer, KindPartitionMigrate:
			// Migration bytes are counted like transfers: they occupy the
			// same NICs and sum into Metrics.NetworkBytes, so the
			// egress/ingress reconciliation invariant holds on elastic runs.
			sb := row(i)
			src := sb.machine(ev.Machine)
			dst := sb.machine(ev.Dst)
			dur := ev.End - ev.Start
			src.EgressBusySeconds += dur
			src.EgressBytes += ev.Bytes
			src.Transfers++
			src.StallSeconds += ev.Stall
			dst.IngressBusySeconds += dur
			dst.IngressBytes += ev.Bytes
			if ev.Incast {
				dst.IncastStallSeconds += ev.Stall
			}
		case KindFailure:
			row(i).machine(ev.Machine).Failed = true
		case KindRetry:
			row(i).machine(ev.Machine).Retries++
		case KindTransferDrop:
			mb := row(i).machine(ev.Machine)
			mb.TransferDrops++
			mb.DropStallSeconds += ev.End - ev.Start
		case KindTransferRetry:
			row(i).machine(ev.Machine).TransferRetries++
		case KindSpeculate:
			row(i).machine(ev.Machine).Speculations++
		case KindCheckpoint:
			b.Checkpoints++
			b.CheckpointJobs = append(b.CheckpointJobs, ev.Job)
		case KindRestore:
			b.Restores++
			b.RestoreJobs = append(b.RestoreJobs, ev.Job)
		}
	}
	for _, jb := range b.Jobs {
		for _, sb := range jb.Stages {
			sort.Slice(sb.Machines, func(i, j int) bool {
				return sb.Machines[i].Machine < sb.Machines[j].Machine
			})
		}
	}
	return b
}

// PerMachine aggregates the breakdown across every job and stage into one
// row per machine, sorted by machine ID.
func (b *Breakdown) PerMachine() []*MachineBreakdown {
	byID := make(map[int]*MachineBreakdown)
	for _, jb := range b.Jobs {
		for _, sb := range jb.Stages {
			for _, mb := range sb.Machines {
				agg, ok := byID[mb.Machine]
				if !ok {
					agg = &MachineBreakdown{Machine: mb.Machine}
					byID[mb.Machine] = agg
				}
				agg.add(mb)
			}
		}
	}
	out := make([]*MachineBreakdown, 0, len(byID))
	for _, mb := range byID {
		out = append(out, mb)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Machine < out[j].Machine })
	return out
}

// Totals aggregates the whole trace into one row (Machine == None).
func (b *Breakdown) Totals() MachineBreakdown {
	t := MachineBreakdown{Machine: None}
	for _, mb := range b.PerMachine() {
		t.add(mb)
	}
	return t
}

// WriteText renders the job → stage → machine hierarchy as the table
// surfer-trace -breakdown prints.
func (b *Breakdown) WriteText(w io.Writer) {
	fmt.Fprintf(w, "breakdown (job -> stage -> machine)\n")
	for _, jb := range b.Jobs {
		fmt.Fprintf(w, "job %-24s [%10.6f .. %10.6f]\n", jb.Name, jb.Begin, jb.End)
		for _, sb := range jb.Stages {
			fmt.Fprintf(w, "  stage %-20s [%10.6f .. %10.6f]\n", sb.Name, sb.Begin, sb.End)
			for _, mb := range sb.Machines {
				fmt.Fprintf(w, "    m%-3d compute=%.6fs tasks=%d egress=%dB/%.6fs ingress=%dB/%.6fs stall=%.6fs incast=%.6fs",
					mb.Machine, mb.ComputeSeconds, mb.TasksRun,
					mb.EgressBytes, mb.EgressBusySeconds,
					mb.IngressBytes, mb.IngressBusySeconds,
					mb.StallSeconds, mb.IncastStallSeconds)
				if mb.Retries > 0 {
					fmt.Fprintf(w, " retries=%d", mb.Retries)
				}
				if mb.TasksLost > 0 {
					fmt.Fprintf(w, " lost=%d", mb.TasksLost)
				}
				if mb.TransferDrops > 0 {
					fmt.Fprintf(w, " drops=%d dropstall=%.6fs", mb.TransferDrops, mb.DropStallSeconds)
				}
				if mb.TransferRetries > 0 {
					fmt.Fprintf(w, " xfer-retries=%d", mb.TransferRetries)
				}
				if mb.Speculations > 0 {
					fmt.Fprintf(w, " speculations=%d", mb.Speculations)
				}
				if mb.Failed {
					fmt.Fprintf(w, " FAILED")
				}
				fmt.Fprintf(w, "\n")
			}
		}
	}
	if b.Checkpoints > 0 {
		fmt.Fprintf(w, "checkpoints: %d (%s)\n", b.Checkpoints, strings.Join(b.CheckpointJobs, ", "))
	}
	if b.Restores > 0 {
		fmt.Fprintf(w, "restores:    %d (%s)\n", b.Restores, strings.Join(b.RestoreJobs, ", "))
	}
}
