package propagation

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/engine"
	"repro/internal/partition"
	"repro/internal/storage"
)

// CheckpointConfig configures iteration checkpointing for multi-iteration
// propagation (the recovery half of Figure 10's fault-tolerance story):
// between iterations the vertex state lives only on each partition's local
// disk, so a machine death loses every iteration since the last durable
// copy. Checkpointing persists the state to storage replicas every Interval
// iterations; recovery then replays at most Interval iterations instead of
// the whole run.
type CheckpointConfig struct {
	// Interval is K: a checkpoint commits after every K-th iteration.
	// 0 disables checkpointing — a death rolls the run back to iteration
	// zero (the restart-from-scratch baseline).
	Interval int
	// Replicas locates each partition's replica holders; checkpoint copies
	// sync to a holder other than the writer, and restores read from it.
	// Required when Interval > 0.
	Replicas *storage.Replicas
	// Cascaded applies cascaded propagation (§5.2) to the compute
	// iterations. Checkpoints always persist the full state, so mid-phase
	// iterations that skipped intermediate I/O stay recoverable.
	Cascaded bool
}

// RunCheckpointed executes iters propagation iterations with iteration
// checkpointing. Every checkpoint and restore runs as an ordinary engine job
// — its disk and network traffic is charged to the virtual clock and the
// NICs like any other stage — and is marked on the runner's metrics and
// trace stream. The iterations are planned once; when a machine dies during
// one, the run restores the planned state of the last checkpoint and replays
// the planned jobs from there, so the final values are bit-identical to a
// failure-free run.
func RunCheckpointed[V any](r *engine.Runner, pg *storage.PartitionedGraph, pl *partition.Placement, prog Program[V], st *State[V], opt Options, iters int, cfg CheckpointConfig) (*State[V], engine.Metrics, error) {
	if cfg.Interval < 0 {
		return nil, engine.Metrics{}, fmt.Errorf("propagation: negative checkpoint interval %d", cfg.Interval)
	}
	if cfg.Interval > 0 && cfg.Replicas == nil {
		return nil, engine.Metrics{}, fmt.Errorf("propagation: checkpoint interval %d requires replicas", cfg.Interval)
	}
	p := planner[V]{pool: r.Pool(), pg: pg, pl: pl, prog: prog, opt: opt, prefix: "propagation"}
	if cfg.Cascaded {
		p.prefix, p.ci = "cascaded", AnalyzeCascade(pg)
	}
	// ckpts[i] is the state the checkpoint after iteration i persists.
	ckpts := make(map[int]*State[V])
	jobs, final, err := p.plan(st, iters, func(i int, _, next *State[V]) bool {
		if cfg.Interval > 0 && (i+1)%cfg.Interval == 0 && i+1 < iters {
			ckpts[i+1] = next
		}
		return false
	})
	if err != nil {
		return nil, engine.Metrics{}, err
	}
	var total engine.Metrics
	ckptIter := 0
	rollbacks := 0
	for i := 0; i < len(jobs); {
		deaths := r.Deaths()
		m, err := r.Run(jobs[i])
		if err != nil {
			return nil, total, err
		}
		total.Add(m)
		if r.Deaths() > deaths {
			// A machine died: the state of its partitions since the last
			// checkpoint is gone. Restore the checkpoint (charging its I/O)
			// and replay from there.
			rollbacks++
			if rollbacks > r.NumMachines() {
				return nil, total, fmt.Errorf("propagation: %d rollbacks on a %d-machine cluster; failure plan cannot converge", rollbacks, r.NumMachines())
			}
			if ckptIter > 0 {
				// The restore job is the failure's consequence, not normal
				// job chaining: mark it so its trace event says so.
				r.MarkNextJobRecovery()
				rm, err := runStateCopy(r, pg, pl, prog, ckpts[ckptIter], cfg.Replicas, ckptIter, true)
				if err != nil {
					return nil, total, err
				}
				total.Add(rm)
			}
			i = ckptIter
			continue
		}
		i++
		if ckpt := ckpts[i]; ckpt != nil {
			cm, err := runStateCopy(r, pg, pl, prog, ckpt, cfg.Replicas, i, false)
			if err != nil {
				return nil, total, err
			}
			total.Add(cm)
			ckptIter = i
		}
	}
	return final, total, nil
}

// statePartBytes sums the serialized state per partition: each real vertex
// in its home partition, each virtual value in its round-robin owner.
func statePartBytes[V any](pg *storage.PartitionedGraph, prog Program[V], st *State[V]) []int64 {
	out := make([]int64, pg.Part.P)
	for v, val := range st.Values {
		out[pg.Part.Assign[v]] += prog.Bytes(val)
	}
	for d, val := range st.Virtual {
		out[VirtualPartition(d, pg.Part.P)] += prog.Bytes(val)
	}
	return out
}

// syncHolder picks the replica machine a partition's checkpoint copy syncs
// to: the first holder that is not the writer. Degenerate layouts (a single
// holder) sync in place.
func syncHolder(reps *storage.Replicas, p int, writer cluster.MachineID) cluster.MachineID {
	for _, m := range reps.Machines[p] {
		if m != writer {
			return m
		}
	}
	return writer
}

// runStateCopy copies each partition's state between its machine and its
// sync holder as a two-stage engine job; all I/O flows through the
// simulated disks and NICs. A checkpoint's ckpt-write writes the state to
// the machine's disk and ckpt-sync ships a copy to the holder, which writes
// it too. A restore's restore-read reads the holder's durable copy and
// restore-write ships it back to the partition's (possibly failed-over)
// machine, which writes it locally.
func runStateCopy[V any](r *engine.Runner, pg *storage.PartitionedGraph, pl *partition.Placement, prog Program[V], st *State[V], reps *storage.Replicas, iter int, restore bool) (engine.Metrics, error) {
	prefix, first, second := "ckpt", "write", "sync"
	if restore {
		prefix, first, second = "restore", "read", "write"
	}
	bytesPer := statePartBytes(pg, prog, st)
	from := make([]*engine.Task, pg.Part.P)
	to := make([]*engine.Task, pg.Part.P)
	var totalBytes int64
	for i := range from {
		src, dst := pl.MachineOf[i], syncHolder(reps, i, pl.MachineOf[i])
		if restore {
			src, dst = dst, src
		}
		totalBytes += bytesPer[i]
		from[i] = &engine.Task{
			Name: fmt.Sprintf("%s-%s-p%d", prefix, first, i), Kind: engine.KindTransfer,
			Part: partition.PartID(i), Machine: src,
			Outputs: []engine.Output{{DstTask: i, Bytes: bytesPer[i]}},
		}
		if restore {
			from[i].DiskRead = bytesPer[i]
		} else {
			from[i].DiskWrite = bytesPer[i]
		}
		to[i] = &engine.Task{
			Name: fmt.Sprintf("%s-%s-p%d", prefix, second, i), Kind: engine.KindCombine,
			Part: partition.PartID(i), Machine: dst,
			DiskWrite: bytesPer[i],
		}
	}
	name := fmt.Sprintf("%s-%03d", prefix, iter)
	m, err := r.Run(&engine.Job{Name: name, Stages: []*engine.Stage{
		{Name: prefix + "-" + first, Tasks: from},
		{Name: prefix + "-" + second, Tasks: to},
	}})
	if err != nil {
		return m, err
	}
	if restore {
		r.NoteRestore(name, totalBytes)
		m.Restores++
	} else {
		r.NoteCheckpoint(name, totalBytes)
		m.Checkpoints++
	}
	return m, nil
}
