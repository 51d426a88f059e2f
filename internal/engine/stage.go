package engine

import (
	"fmt"
	"sort"

	"repro/internal/cluster"
	"repro/internal/partition"
	"repro/internal/trace"
)

// The stage executor: the one place that knows how a task occupies a slot,
// how a transfer occupies two NICs, how a drop is detected and retried and
// how a stage barrier finds its binding event. Its clients decide *what*
// runs and *where*: Runner.Run opens one stage at a time on the runner's
// own placement; the job service (internal/jobsvc) opens stages of several
// jobs at once, each under its own label, and owns arrivals, admission,
// ranking and preemption around the same calls — Open, NextEvent, Step,
// Load.

// StageSpec describes one stage to open on the shared cluster.
type StageSpec struct {
	// Job and Index select the stage.
	Job   *Job
	Index int
	// Label and Tenant name the stage's owner on every trace event it
	// emits: Label is the event's Job, unique among concurrently open jobs.
	Label, Tenant string
	// At is the opening time, Cause the Seq of the event that let the stage
	// open (trace.None for a root).
	At    float64
	Cause int
	// Metrics accumulates the stage's costs in event order — float sums are
	// order-sensitive, so a client that accounts per job passes one
	// Metrics per job.
	Metrics *Metrics
	// Place resolves each task's machine as it is enqueued, in task order,
	// so it may consult Load. Nil selects the runner's own placement
	// (migrated homes, failover past unavailable machines) and arms the
	// runner's failure and membership events for the stage; a caller that
	// places a stage itself owns membership too, and the outputs of its
	// tasks travel to the pins of the next stage's tasks.
	Place func(*Task) (cluster.MachineID, error)
	// prev is the job's previous stage run, whose task locations a Combine
	// recovery re-fetches inputs from.
	prev *StageRun
}

// taskRef is a machine-queue entry: queues are shared between open stages,
// and one plan may be running as several jobs at once, so a queued task is
// identified by its stage run and its index in the stage, never by the
// *Task alone.
type taskRef struct {
	sr *StageRun
	i  int
}

// task is the plan's task the reference names.
func (ref taskRef) task() *Task { return ref.sr.tasks[ref.i] }

// taskState is the execution state of one task of a stage run.
type taskState struct {
	// machine is where the task's committed copy ran (-1 = nowhere yet),
	// for input re-transfer on recovery.
	machine cluster.MachineID
	// copies counts the currently running copies (original plus
	// speculative backups).
	copies int32
	// committed marks a task whose first completed copy already committed
	// its results; later copies (speculative backups, stale completions)
	// burn machine time but change nothing — first completion wins, and
	// because commitment happens in the serial event loop the committed
	// results are identical in task order for every worker count.
	committed bool
	// speculated marks a task that already received a backup copy, so the
	// straggler rule fires at most once per task.
	speculated bool
}

// runAttempt is one currently-executing copy of a task, registered when the
// attempt starts and dropped when it completes or its machine dies. The
// registry replaces scans of the event queue: the straggler check and the
// failure handler read it directly, in attempt-start order.
type runAttempt struct {
	taskRef
	machine cluster.MachineID
	dur     float64
}

// pendingTransfer is the retry state machine of one logical transfer: the
// record is re-dispatched until an attempt succeeds, carrying the attempt
// count that drives the exponential backoff.
type pendingTransfer struct {
	src, dst cluster.MachineID
	bytes    int64
	part     partition.PartID
	attempt  int
	// dstName is the destination task's name and cause the Seq of the event
	// that enabled the current attempt (the producing task's end, a recovery
	// retry, or the transfer-retry after a drop's backoff) — both carried
	// onto the emitted transfer event for the causal DAG.
	dstName string
	cause   int
	// migrate marks a live partition migration: a successful attempt emits
	// KindPartitionMigrate instead of KindTransfer and rehomes the
	// partition on arrival. part is the migrating partition itself.
	migrate bool
}

// StageRun is one open (then closed) stage barrier: the state that belongs
// to the barrier alone. Per-task state is indexed by the task's position in
// the stage, which queue entries and events carry; slots, queues and NICs
// are the Runner's. The plan itself is only read.
type StageRun struct {
	r        *Runner
	job      *Job
	stageIdx int
	tasks    []*Task
	// name, label and tenant are the Stage, Job and Tenant of the stage's
	// trace events; m accumulates its costs.
	name, label, tenant string
	m                   *Metrics
	prev                *StageRun
	// managed marks a stage the runner placed itself (StageSpec.Place nil).
	managed   bool
	remaining int
	inflight  int
	// closed marks the barrier closed (or the stage abandoned): what the
	// stage left in the machine queues and the event queue is skipped.
	closed bool
	// busy is the stage's delivered machine-seconds, in event order.
	busy  float64
	state []taskState
	// doneDurs collects committed task durations for the median the
	// speculation policy compares stragglers against; only a run that
	// speculates collects them.
	doneDurs []float64
	end      float64
	// Causal threading: beginSeq is this stage's begin event, popSeq the Seq
	// describing the event just handled, endCause the Seq of the event that
	// last advanced end (the stage barrier's binding event), endSeq the
	// barrier's last marker (the stage-end, or the job-end after it).
	beginSeq int
	popSeq   int
	endCause int
	endSeq   int
	// err aborts the event loop (e.g. a transfer exhausted its retries).
	err error
}

// End is the barrier time: the time of the stage's last event.
func (sr *StageRun) End() float64 { return sr.end }

// EndSeq is the Seq of the barrier's last marker — the stage-end, or the
// job-end that follows the job's last stage-end: the cause of whatever the
// job does next.
func (sr *StageRun) EndSeq() int { return sr.endSeq }

// MachineSeconds is the machine time the stage delivered.
func (sr *StageRun) MachineSeconds() float64 { return sr.busy }

// Open opens a stage over the shared cluster state: emits its begin markers
// (the job's too when it is the job's first stage), enqueues its tasks on
// their machines and launches what fits in the free slots. An empty stage
// closes on the spot.
func (r *Runner) Open(sp StageSpec) (*StageRun, error) {
	stage := sp.Job.Stages[sp.Index]
	nt := len(stage.Tasks)
	sr := &StageRun{
		r: r, job: sp.Job, stageIdx: sp.Index, tasks: stage.Tasks,
		name: stage.Name, label: sp.Label, tenant: sp.Tenant, m: sp.Metrics,
		prev: sp.prev, managed: sp.Place == nil,
		state:     make([]taskState, nt),
		remaining: nt,
		end:       sp.At,
	}
	if sp.prev != nil {
		sp.prev.prev = nil // recovery looks one stage back, no further
	}
	cause := sp.Cause
	if sp.Index == 0 {
		cause = sr.mark(trace.KindJobBegin, cause, sp.At)
	}
	place := sp.Place
	if place == nil {
		place = r.place
	}
	for i, t := range stage.Tasks {
		sr.state[i].machine = -1
		m, err := place(t)
		if err != nil {
			r.cancel(sr)
			return nil, err
		}
		r.machines[m].queue = append(r.machines[m].queue, taskRef{sr, i})
	}
	sr.beginSeq = sr.mark(trace.KindStageBegin, cause, sp.At)
	// An empty (or instantaneous) stage's barrier is bound by its own begin.
	sr.endCause = sr.beginSeq
	// Start machines in ID order for determinism. These launches are
	// enabled by the stage barrier opening; a machine whose queue held work
	// before has no free slot, so only this stage's tasks can start.
	for m := range r.machines {
		r.startNext(cluster.MachineID(m), sp.At, sr.beginSeq)
	}
	if nt == 0 {
		r.close(sr)
	} else if sr.managed {
		r.arm(sr)
	}
	return sr, nil
}

// arm pushes the runner's pending kills and membership events — joins
// that have not fired, drains that have not started — as events of sr, the
// stage they will be attributed to if they fire before its barrier. Ones
// beyond the barrier are cancelled with the stage and armed again by the
// next.
func (r *Runner) arm(sr *StageRun) {
	at := func(t float64) float64 {
		if t < r.clock {
			return r.clock
		}
		return t
	}
	for _, k := range r.kills {
		if r.machines[k.Machine].state != dead {
			sr.push(event{at: at(k.At), kind: evFailure, machine: k.Machine})
		}
	}
	for _, j := range r.joins {
		if r.machines[j.Machine].state == dormant {
			sr.push(event{at: at(j.At), kind: evJoin, machine: j.Machine})
		}
	}
	for _, d := range r.drains {
		if st := r.machines[d.Machine].state; st == live || st == dormant {
			sr.push(event{at: at(d.At), kind: evDrain, machine: d.Machine, deadline: d.Deadline})
		}
	}
}

// peek discards cancelled events at the head of the queue and returns the
// next live one, nil when there is none.
func (r *Runner) peek() *event {
	for r.evq.Len() > 0 {
		if e := r.evq.h[0]; !e.sr.closed {
			return e
		}
		r.evq.recycle(r.evq.pop())
	}
	return nil
}

// NextEvent reports the time of the next pending event, false when none is
// pending. A client with events of its own (the job service's arrivals)
// compares times to decide which side moves first.
func (r *Runner) NextEvent() (float64, bool) {
	if e := r.peek(); e != nil {
		return e.at, true
	}
	return 0, false
}

// Load is the work pending on machine m: queued plus running tasks.
func (r *Runner) Load(m cluster.MachineID) int {
	mc := &r.machines[m]
	if mc.busy {
		return len(mc.queue) + 1
	}
	return len(mc.queue)
}

// Step handles the next pending event and returns the stage whose barrier
// it closed, nil when it closed none.
func (r *Runner) Step() (*StageRun, error) {
	e := r.peek()
	if e == nil {
		return nil, fmt.Errorf("engine: no event pending")
	}
	r.evq.pop()
	sr := e.sr
	sr.popSeq = trace.None
	switch e.kind {
	case evTaskDone:
		sr.onTaskDone(e)
	case evTransferDone:
		sr.inflight--
		sr.popSeq = e.traceSeq
		if e.transfer != nil {
			sr.onMigrateDone(e)
		}
	case evFailure:
		sr.onFailure(e)
	case evRecovery:
		sr.onRecovery(e)
	case evTransferRetry:
		sr.onTransferRetry(e)
	case evJoin:
		sr.onJoin(e)
	case evDrain:
		sr.onDrain(e)
	case evDrainDeadline:
		sr.onDrainDeadline(e)
	}
	if sr.err != nil {
		return nil, sr.err
	}
	// The last event to advance sr.end is the stage barrier's binding
	// event: the stage-end's cause on the critical path.
	if e.at > sr.end {
		sr.end = e.at
		sr.endCause = sr.popSeq
	}
	r.evq.recycle(e)
	if sr.remaining > 0 || sr.inflight > 0 {
		return nil, nil
	}
	r.close(sr)
	return sr, nil
}

// close emits the barrier's markers — the job's end too after its last
// stage — and cancels what the stage left behind.
func (r *Runner) close(sr *StageRun) {
	sr.endSeq = sr.mark(trace.KindStageEnd, sr.endCause, sr.end)
	if sr.stageIdx == len(sr.job.Stages)-1 {
		sr.endSeq = sr.mark(trace.KindJobEnd, sr.endSeq, sr.end)
	}
	r.cancel(sr)
}

// cancel withdraws sr from the shared state, per stage rather than by
// resetting the world: its queue entries and pending events (stale
// completions of dead machines, losing speculative copies, failures armed
// past the barrier) are skipped from here on, and the slots its running
// copies hold are freed.
func (r *Runner) cancel(sr *StageRun) {
	sr.closed = true
	kept := r.attempts[:0]
	for _, a := range r.attempts {
		if a.sr == sr {
			r.machines[a.machine].busy = false
			continue
		}
		kept = append(kept, a)
	}
	r.attempts = kept
}

// emit records a trace event of this stage, stamped with its labels, and
// returns its Seq (None when tracing is off, via the nil-safe Emit).
func (sr *StageRun) emit(ev trace.Event) int {
	ev.Job, ev.Stage, ev.Tenant = sr.label, sr.name, sr.tenant
	return sr.r.tr.Emit(ev)
}

// mark emits a job or stage begin/end marker.
func (sr *StageRun) mark(kind trace.EventKind, cause int, at float64) int {
	ev := trace.Event{Kind: kind, Job: sr.label, Tenant: sr.tenant, Cause: cause,
		Machine: trace.None, Dst: trace.None, Part: trace.None, Time: at}
	if kind == trace.KindStageBegin || kind == trace.KindStageEnd {
		ev.Stage = sr.name
	}
	return sr.r.tr.Emit(ev)
}

// emitTask emits a task-lifecycle trace event.
func (sr *StageRun) emitTask(kind trace.EventKind, t *Task, m cluster.MachineID, at, start, end float64, cause int) int {
	return sr.emit(trace.Event{
		Kind: kind, Name: t.Name,
		Cause: cause, Machine: int(m), Dst: trace.None, Part: int(t.Part),
		Time: at, Start: start, End: end,
	})
}

// push enqueues a simulation event of this stage, copying it into a
// recycled record and stamping the deterministic tie-break sequence.
func (sr *StageRun) push(ev event) {
	r := sr.r
	e := r.evq.alloc()
	*e = ev
	e.sr = sr
	e.seq = r.seq
	r.seq++
	r.evq.push(e)
}

// startNext launches the next queued task on machine m at time now when its
// one slot is free. The queue is shared between open stages: contention for
// task slots is FIFO in enqueue order, whatever the owning job. cause is the
// Seq of the event that freed the slot or enqueued the task — possibly
// another job's.
func (r *Runner) startNext(m cluster.MachineID, now float64, cause int) {
	mc := &r.machines[m]
	if mc.state == dead {
		return
	}
	for !mc.busy && len(mc.queue) > 0 {
		ref := mc.queue[0]
		mc.queue = mc.queue[1:]
		sr, ts := ref.sr, &ref.sr.state[ref.i]
		if sr.closed || ts.committed {
			// A queued backup whose original already finished: drop it.
			continue
		}
		t := ref.task()
		mc.busy = true
		ts.copies++
		// Stragglers: a machine slowed by a transient fault stretches
		// every task that starts during the slowdown window. The product
		// is rounded: no fused multiply-add (DESIGN.md).
		dur := float64((t.Compute + float64(t.DiskRead+t.DiskWrite)/r.cfg.Topo.DiskBandwidth()) * r.faults.SlowdownFactor(m, now))
		startSeq := sr.emitTask(trace.KindTaskStart, t, m, now, now, 0, cause)
		r.attempts = append(r.attempts, runAttempt{taskRef: ref, machine: m, dur: dur})
		sr.push(event{at: now + dur, kind: evTaskDone, task: ref.i, machine: m, start: now, dur: dur, startSeq: startSeq})
	}
}

// dropAttempt unregisters the running attempt of ref on machine m,
// preserving the start order of the remaining attempts.
func (r *Runner) dropAttempt(ref taskRef, m cluster.MachineID) {
	for i, a := range r.attempts {
		if a.taskRef == ref && a.machine == m {
			r.attempts = append(r.attempts[:i], r.attempts[i+1:]...)
			return
		}
	}
}

func (sr *StageRun) onTaskDone(e *event) {
	r := sr.r
	mc := &r.machines[e.machine]
	if mc.state == dead {
		// The machine died while this completion event was in flight;
		// the failure handler already requeued the task. If this stale
		// completion still advances the stage barrier, blame the failure.
		sr.popSeq = mc.stateSeq
		return
	}
	t, ts := sr.tasks[e.task], &sr.state[e.task]
	r.dropAttempt(taskRef{sr, e.task}, e.machine)
	sr.m.MachineSeconds += e.dur
	sr.m.DiskBytes += t.DiskRead + t.DiskWrite
	sr.m.TasksRun++
	sr.busy += e.dur
	mc.busySeconds += e.dur
	endSeq := sr.emitTask(trace.KindTaskEnd, t, e.machine, e.at, e.start, e.at, e.startSeq)
	sr.popSeq = endSeq
	mc.busy = false
	ts.copies--
	if ts.committed {
		// A speculative duplicate losing the race: its work is charged
		// above, but the first completion already committed the results.
		r.startNext(e.machine, e.at, endSeq)
		return
	}
	ts.committed = true
	ts.machine = e.machine
	sr.remaining--
	if r.cfg.Speculate {
		sr.doneDurs = append(sr.doneDurs, e.dur)
	}
	// Launch output transfers toward next-stage task machines.
	if len(t.Outputs) > 0 {
		next := sr.job.Stages[sr.stageIdx+1]
		for _, out := range t.Outputs {
			dst := next.Tasks[out.DstTask]
			dstM := dst.Machine
			if sr.managed {
				if pm, err := r.place(dst); err == nil {
					dstM = pm
				}
			}
			sr.sendBytes(e.machine, dstM, out.Bytes, e.at, dst.Part, dst.Name, endSeq)
		}
	}
	// This completion frees a slot: whatever launches next is its effect.
	r.startNext(e.machine, e.at, endSeq)
	sr.maybeSpeculate(e.at)
}

// maybeSpeculate is the job manager's straggler check (Appendix B records
// per-task progress; MapReduce-style backup tasks act on it): once enough
// of the stage has committed to trust the median task duration, every
// still-running task projected to overrun twice the median gets one backup
// copy on a live replica holder of its partition. The first completed copy
// commits; the loop stays serial, so speculation preserves determinism.
func (sr *StageRun) maybeSpeculate(now float64) {
	r := sr.r
	if !r.cfg.Speculate || r.cfg.Replicas == nil {
		return
	}
	total := len(sr.tasks)
	median := medianOf(sr.doneDurs)
	// Collect stragglers from the running-attempt registry first: launching
	// backups mutates it via startNext. Attempts on dead machines were
	// already dropped by the failure handler.
	var found []runAttempt
	for _, a := range r.attempts {
		if a.sr != sr || sr.state[a.i].committed || sr.state[a.i].speculated || a.task().Part == NoPart {
			continue
		}
		if isStraggler(a.dur, median, len(sr.doneDurs), total) {
			found = append(found, a)
		}
	}
	// Deterministic launch order: the registry order is deterministic, but
	// sort by task name anyway so the order is obvious, not incidental.
	sort.Slice(found, func(i, j int) bool { return found[i].task().Name < found[j].task().Name })
	for _, s := range found {
		t := s.task()
		backup := r.backupMachine(t, s.machine)
		if backup < 0 {
			continue
		}
		sr.state[s.i].speculated = true
		sr.m.Speculations++
		// The committed completion whose median triggered this check is the
		// cause of the backup launch (sr.popSeq: the task-end just handled).
		specSeq := sr.emit(trace.Event{Kind: trace.KindSpeculate, Name: t.Name, Cause: sr.popSeq,
			Machine: int(backup), Dst: trace.None, Part: int(t.Part), Time: now})
		r.machines[backup].queue = append(r.machines[backup].queue, s.taskRef)
		r.startNext(backup, now, specSeq)
	}
}

// isStraggler is the backup-task rule: once half the stage has committed,
// a task whose projected duration exceeds twice the stage's median committed
// duration is a straggler.
func isStraggler(projected, median float64, completed, total int) bool {
	if total == 0 || median <= 0 || float64(completed) < 0.5*float64(total) {
		return false
	}
	return projected > 2*median
}

// backupMachine picks the first available replica holder of the task's
// partition that is not the machine already running it, or -1 when none
// exists. Draining, retired and dormant machines do not accept backups.
func (r *Runner) backupMachine(t *Task, running cluster.MachineID) cluster.MachineID {
	for _, m := range r.cfg.Replicas.Machines[t.Part] {
		if m != running && !r.unavailable(m) {
			return m
		}
	}
	return -1
}

// medianOf returns the median of a non-empty sample (0 when empty). The
// sample is copied; the caller's order is preserved.
func medianOf(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := make([]float64, len(xs))
	copy(s, xs)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// sendBytes schedules a transfer from src to dst, serializing with earlier
// transfers — of any open stage — on the sender's egress NIC and the
// receiver's ingress NIC. Intra-machine moves are free. dstPart is the
// destination task's partition and dstName its name, recorded on the trace
// event so traffic can be attributed per partition and the transfer →
// receiving-task edge is visible; cause is the Seq of the event that
// produced the bytes.
func (sr *StageRun) sendBytes(src, dst cluster.MachineID, bytes int64, now float64, dstPart partition.PartID, dstName string, cause int) {
	if bytes <= 0 || src == dst {
		return
	}
	sr.inflight++
	sr.dispatch(pendingTransfer{src: src, dst: dst, bytes: bytes, part: dstPart, dstName: dstName, cause: cause}, now)
}

// dispatch issues one attempt of a (possibly retried) transfer at time now.
// A blackholed attempt holds both NICs until the sender's timeout, then
// schedules a backoff retry; a successful attempt occupies the NICs for
// bytes / (bandwidth ÷ degradation factor) seconds and delivers the bytes.
// The record travels by value: only an event that outlives the call — the
// retry after a drop, the landing of a migration — holds a heap copy.
func (sr *StageRun) dispatch(ts pendingTransfer, now float64) {
	r := sr.r
	src, dst := &r.machines[ts.src], &r.machines[ts.dst]
	egFree, inFree := src.egressFree, dst.ingressFree
	start := now
	if egFree > start {
		start = egFree
	}
	if inFree > start {
		start = inFree
	}
	if r.faults.DropsTransfer(ts.src, ts.dst, start) {
		// The attempt makes no progress, but the sender cannot know that
		// until its timeout fires: both NICs stay held until detection.
		detect := start + r.retry.Timeout
		src.egressFree = detect
		dst.ingressFree = detect
		ts.attempt++
		sr.m.TransferDrops++
		dropSeq := sr.emit(trace.Event{
			Kind: trace.KindTransferDrop, Name: ts.dstName,
			Cause: ts.cause, Machine: int(ts.src), Dst: int(ts.dst), Part: int(ts.part), Bytes: ts.bytes,
			Time: now, Start: start, End: detect, Attempt: ts.attempt,
		})
		if r.retry.MaxAttempts > 0 && ts.attempt >= r.retry.MaxAttempts {
			sr.err = fmt.Errorf("engine: job %q: transfer %d→%d (%d bytes) dropped %d times; retry budget exhausted",
				sr.label, ts.src, ts.dst, ts.bytes, ts.attempt)
			return
		}
		pending := ts
		sr.push(event{at: detect + r.retry.BackoffAt(ts.attempt), kind: evTransferRetry, transfer: &pending, traceSeq: dropSeq})
		return
	}
	factor := r.faults.LinkFactor(ts.src, ts.dst, start)
	// An elastic machine's NIC line rate caps the link in both directions
	// (min of link bandwidth and either endpoint's rate), the slow-spot-
	// instance model.
	bw := r.cfg.Topo.Bandwidth(ts.src, ts.dst)
	if nr := src.nicRate; nr > 0 && nr < bw {
		bw = nr
	}
	if nr := dst.nicRate; nr > 0 && nr < bw {
		bw = nr
	}
	dur := float64(ts.bytes) * factor / bw
	src.egressFree = start + dur
	dst.ingressFree = start + dur
	// Only delivered bytes count as network I/O; dropped attempts moved
	// nothing.
	sr.m.NetworkBytes += ts.bytes
	kind := trace.KindTransfer
	if ts.migrate {
		kind = trace.KindPartitionMigrate
	}
	seq := sr.emit(trace.Event{
		Kind: kind, Name: ts.dstName,
		Cause: ts.cause, Machine: int(ts.src), Dst: int(ts.dst), Part: int(ts.part), Bytes: ts.bytes,
		Time: now, Start: start, End: start + dur, Stall: start - now,
		// The receiver's ingress NIC is the binding constraint when it
		// frees no earlier than the sender's egress — the incast case.
		Incast:  inFree > now && inFree >= egFree,
		Attempt: ts.attempt, Degraded: factor > 1,
	})
	done := event{at: start + dur, kind: evTransferDone, traceSeq: seq}
	if ts.migrate {
		// The completion handler needs the transfer record to rehome the
		// partition on arrival.
		landed := ts
		done.transfer = &landed
	}
	sr.push(done)
}

// onTransferRetry re-issues a dropped transfer once its backoff elapses.
func (sr *StageRun) onTransferRetry(e *event) {
	ts := e.transfer
	sr.m.TransferRetries++
	retrySeq := sr.emit(trace.Event{
		Kind: trace.KindTransferRetry, Name: ts.dstName,
		Cause: e.traceSeq, Machine: int(ts.src), Dst: int(ts.dst), Part: int(ts.part),
		Time: e.at, Attempt: ts.attempt,
	})
	sr.popSeq = retrySeq
	// The re-issued attempt is caused by the retry, not the original send.
	ts.cause = retrySeq
	sr.dispatch(*ts, e.at)
}

// onFailure marks the machine dead, collects its lost work and schedules the
// manager's reaction one heartbeat later. A scheduled failure is exogenous;
// anchoring it to the enclosing stage keeps the DAG rooted, and the analyzer
// blames the gap to the stage's start on the fault model (retry backoff),
// not on work.
func (sr *StageRun) onFailure(e *event) {
	sr.failMachine(e.machine, e.at, sr.beginSeq)
}

// failMachine executes a machine death at time at: the failure trace event
// cites cause (the stage begin for scheduled failures, the machine-drain for
// an expired drain deadline), lost work is collected and the manager's
// reaction scheduled one heartbeat later.
func (sr *StageRun) failMachine(m cluster.MachineID, at float64, cause int) {
	r := sr.r
	mc := &r.machines[m]
	if mc.state == dead {
		sr.popSeq = mc.stateSeq
		return
	}
	mc.state = dead
	failSeq := sr.emit(trace.Event{Kind: trace.KindFailure,
		Cause: cause, Machine: int(m), Dst: trace.None, Part: trace.None, Time: at})
	mc.stateSeq = failSeq
	r.lastFailSeq = failSeq
	sr.popSeq = failSeq
	var lost []taskRef
	// Queued tasks are lost — unless another copy is committed or still
	// running elsewhere (a queued speculative backup loses nothing).
	for _, q := range mc.queue {
		if ts := q.sr.state[q.i]; !q.sr.closed && !ts.committed && ts.copies == 0 {
			lost = append(lost, q)
		}
	}
	mc.queue = nil
	// Running tasks are lost in attempt-start order: their completion
	// events stay on the queue, but the completion handler sees the dead
	// machine and ignores them. A task is only requeued when this death
	// killed its last running copy and no copy has committed — a surviving
	// speculative backup carries on.
	if mc.busy {
		kept := r.attempts[:0]
		for _, a := range r.attempts {
			if a.machine != m {
				kept = append(kept, a)
				continue
			}
			ts := &a.sr.state[a.i]
			ts.copies--
			if !ts.committed && ts.copies == 0 {
				lost = append(lost, a.taskRef)
			}
		}
		r.attempts = kept
		mc.busy = false
	}
	for _, l := range lost {
		l.sr.emitTask(trace.KindTaskLost, l.task(), m, at, 0, 0, failSeq)
	}
	sr.push(event{
		at:       at + r.cfg.HeartbeatInterval,
		kind:     evRecovery,
		lost:     lost,
		traceSeq: failSeq,
	})
	// Keep the recovery event from racing stage completion.
	sr.inflight++
}

// onRecovery reassigns lost tasks to replica machines, re-transferring the
// inputs of Combine-type tasks (Appendix B).
func (sr *StageRun) onRecovery(e *event) {
	r := sr.r
	sr.inflight--
	sr.popSeq = e.traceSeq
	for _, l := range e.lost {
		if l.sr.closed || l.sr.state[l.i].committed {
			// A copy elsewhere committed between the failure and the
			// manager noticing it; nothing to recover.
			continue
		}
		m, err := r.failover(l.task())
		if err != nil {
			// No live replica: surface as a deadlock; tests assert on
			// the error path via Run's deadlock message.
			continue
		}
		l.sr.recoverTask(l.i, m, e.at, e.traceSeq)
	}
}

// recoverTask requeues lost task i of this stage on machine m.
func (sr *StageRun) recoverTask(i int, m cluster.MachineID, at float64, failSeq int) {
	r := sr.r
	t := sr.tasks[i]
	sr.m.Recoveries++
	// The retry is caused by the failure (via the heartbeat); emit it
	// before the input re-transfers so they can cite it as their cause.
	retrySeq := sr.emitTask(trace.KindRetry, t, m, at, 0, 0, failSeq)
	if t.Kind == KindCombine && sr.prev != nil {
		// Re-transfer this task's inputs from their producers.
		for pi, pt := range sr.prev.tasks {
			for _, out := range pt.Outputs {
				if out.DstTask != i {
					continue
				}
				src := sr.prev.state[pi].machine
				if src < 0 || r.machines[src].state == dead {
					// Producer machine gone: fetch from the
					// producing partition's replica.
					if fm, err := r.failover(pt); err == nil {
						src = fm
					} else {
						continue
					}
				}
				sr.sendBytes(src, m, out.Bytes, at, t.Part, t.Name, retrySeq)
			}
		}
	}
	r.machines[m].queue = append(r.machines[m].queue, taskRef{sr, i})
	r.startNext(m, at, retrySeq)
}

// failover picks an available replica machine for a task's partition.
// Availability excludes dead machines and — under elastic membership —
// dormant, draining and retired ones.
func (r *Runner) failover(t *Task) (cluster.MachineID, error) {
	if t.Part == NoPart || r.cfg.Replicas == nil {
		// Unpinned task: any available machine.
		for i := 0; i < r.cfg.Topo.NumMachines(); i++ {
			if !r.unavailable(cluster.MachineID(i)) {
				return cluster.MachineID(i), nil
			}
		}
		return 0, fmt.Errorf("engine: no live machines")
	}
	return r.cfg.Replicas.Failover(t.Part, r.unavailable)
}
