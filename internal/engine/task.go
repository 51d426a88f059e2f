// Package engine is Surfer's distributed runtime (§3, Appendix B) on a
// simulated cluster: a job manager dispatches the tasks of each stage to
// slave machines, data moves between machines over links whose bandwidth
// comes from the cluster topology, heartbeats detect machine failures, and
// failed tasks are re-executed on replica machines — re-transferring their
// inputs first when they are Combine-type tasks.
//
// The engine executes in virtual time: task durations are computed from
// their CPU work and disk traffic, transfers from their byte volume and the
// link bandwidth. The event loop interleaves machines, links and failures
// exactly as a real cluster would; only the clock is simulated. All byte
// counters (network, disk) are exact.
package engine

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/partition"
)

// TaskKind distinguishes recovery semantics (Appendix B): a failed Transfer
// task is simply re-executed; a failed Combine task must first re-fetch its
// inputs from the machines that produced them.
type TaskKind int

const (
	// KindTransfer tasks read their partition from local disk and produce
	// outputs; re-execution needs no remote data.
	KindTransfer TaskKind = iota
	// KindCombine tasks consume outputs of the previous stage;
	// re-execution re-transfers those inputs.
	KindCombine
)

func (k TaskKind) String() string {
	switch k {
	case KindTransfer:
		return "transfer"
	case KindCombine:
		return "combine"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// Output declares bytes produced by a task for a task of the next stage.
type Output struct {
	// DstTask indexes into the next stage's task list.
	DstTask int
	// Bytes is the transfer volume.
	Bytes int64
}

// Task is a unit of work pinned to a machine (the machine holding the
// primary replica of its partition).
type Task struct {
	// Name is a diagnostic label.
	Name string
	// Kind selects the failure-recovery semantics.
	Kind TaskKind
	// Part is the partition the task processes; used to find replicas
	// when the primary machine dies. Use NoPart for unpinned tasks.
	Part partition.PartID
	// Machine is the initial assignment.
	Machine cluster.MachineID
	// Compute is CPU seconds.
	Compute float64
	// DiskRead and DiskWrite are local disk bytes.
	DiskRead  int64
	DiskWrite int64
	// Outputs are the data this task produces for next-stage tasks.
	Outputs []Output
}

// NoPart marks a task not bound to any partition.
const NoPart partition.PartID = -1

// Stage is a set of tasks separated from the next stage by a barrier: all
// tasks and all their transfers complete before the next stage starts (the
// bulk-synchronous structure of propagation's Transfer and Combine stages).
type Stage struct {
	Name  string
	Tasks []*Task
}

// Job is a sequence of stages.
type Job struct {
	Name   string
	Stages []*Stage
}

// Validate checks output references and machine assignments.
func (j *Job) Validate(topo *cluster.Topology) error {
	for si, st := range j.Stages {
		for ti, task := range st.Tasks {
			if int(task.Machine) < 0 || int(task.Machine) >= topo.NumMachines() {
				return fmt.Errorf("engine: job %q stage %d task %d on invalid machine %d", j.Name, si, ti, task.Machine)
			}
			if task.Compute < 0 || task.DiskRead < 0 || task.DiskWrite < 0 {
				return fmt.Errorf("engine: job %q stage %d task %d has negative cost", j.Name, si, ti)
			}
			for _, out := range task.Outputs {
				if si+1 >= len(j.Stages) {
					return fmt.Errorf("engine: job %q stage %d task %d outputs past the last stage", j.Name, si, ti)
				}
				if out.DstTask < 0 || out.DstTask >= len(j.Stages[si+1].Tasks) {
					return fmt.Errorf("engine: job %q stage %d task %d output to invalid task %d", j.Name, si, ti, out.DstTask)
				}
				if out.Bytes < 0 {
					return fmt.Errorf("engine: job %q stage %d task %d negative output bytes", j.Name, si, ti)
				}
			}
		}
	}
	return nil
}
