// Package trace is Surfer's structured observability layer: the engine's
// discrete-event loop emits one Event per task start/finish, per NIC
// transfer, per stage barrier and per injected failure/retry into a
// Recorder. The stream is the ground truth behind the hierarchical metrics
// breakdown (Summarize) and the Chrome trace_event exporter (WriteChrome),
// and it inherits the engine's determinism contract: because every event is
// emitted from the serial event loop, the stream — and therefore the
// exported JSON — is byte-identical for every compute worker count.
//
// Tracing is off by default and free when off: a nil *Recorder is a valid,
// disabled recorder whose Emit is a nil-check and nothing else (no
// allocation, pinned by TestDisabledRecorderAllocatesNothing).
package trace

// EventKind identifies what a trace event describes.
type EventKind uint8

const (
	// KindJobBegin / KindJobEnd bracket one engine job (all its stages).
	KindJobBegin EventKind = iota
	KindJobEnd
	// KindStageBegin / KindStageEnd bracket one stage barrier: StageEnd
	// fires only after every task and every transfer of the stage is done.
	KindStageBegin
	KindStageEnd
	// KindTaskStart marks a task beginning execution on Machine at Start.
	KindTaskStart
	// KindTaskEnd marks a task completing on Machine; Start..End is its
	// busy interval (compute + local disk).
	KindTaskEnd
	// KindTaskLost marks a task killed by its machine's failure before
	// completing; Time is the failure time.
	KindTaskLost
	// KindTransfer is one NIC-serialized transfer: Machine -> Dst of Bytes
	// bytes. Time is when the producing task issued it, Start is when both
	// NICs became free (Stall = Start - Time is the queueing delay), End is
	// arrival. Incast reports whether the receiver's ingress NIC — not the
	// sender's egress — was the binding constraint for the delay.
	KindTransfer
	// KindFailure marks a machine death at Time.
	KindFailure
	// KindRetry marks a lost task being re-dispatched to Machine (its
	// failover replica) at Time, after the heartbeat detection latency.
	KindRetry
	// KindTransferDrop marks an in-flight transfer Machine -> Dst failed
	// by a transient link fault: it made no progress, held both NICs from
	// Start until the sender's timeout fired at End, and will be retried.
	// Attempt counts prior attempts (0 = the first send).
	KindTransferDrop
	// KindTransferRetry marks the re-issue of a dropped transfer after
	// its exponential backoff; Attempt is the retry number (1-based).
	KindTransferRetry
	// KindSpeculate marks the job manager launching a backup copy of a
	// straggling task on Machine (a replica holder of Part). The first
	// completed copy commits; results commit in task order either way.
	KindSpeculate
	// KindCheckpoint marks a completed iteration checkpoint: the vertex
	// state persisted to replica machines. Bytes is the state volume.
	KindCheckpoint
	// KindRestore marks a checkpoint restore after a machine death: the
	// run rolled back to the last checkpointed iteration.
	KindRestore
	// KindJobQueued marks a job arriving at the scheduler queue at Time;
	// the gap to its KindJobBegin is scheduler queueing delay.
	KindJobQueued
	// KindJobAdmitted marks the job service granting a queued job a run
	// slot; its Cause is the job's KindJobQueued event, so the walk
	// attributes the submit→admit gap to scheduler queueing.
	KindJobAdmitted
	// KindJobPreempted marks a job losing its run slot at a stage barrier
	// to a higher-ranked job; the job's state is intact and it resumes at
	// the next stage boundary it wins.
	KindJobPreempted
	// KindJobResumed marks a preempted job regaining a run slot; its Cause
	// is the job's KindJobPreempted event, bracketing the suspension.
	KindJobResumed
	// KindJobRejected marks admission control refusing a job at arrival
	// (queue over its limit); the job never runs.
	KindJobRejected
	// KindMachineJoin marks an elastic machine joining the cluster at Time:
	// from here on it accepts migrated partitions, failovers and backups.
	KindMachineJoin
	// KindMachineDrain marks a machine beginning a graceful drain at Time;
	// End carries the drain deadline. Its partitions migrate to survivors;
	// if migration is still incomplete at End the machine dies (an ordinary
	// failure event, caused by this drain).
	KindMachineDrain
	// KindPartitionMigrate is one live partition migration Machine -> Dst of
	// Bytes bytes, NIC-serialized exactly like a transfer (Start..End busy,
	// Stall queueing). Its Cause is the machine-drain that evicted it.
	KindPartitionMigrate
	// KindAlertFired marks an SLO alert rule breaching its threshold for its
	// configured run of consecutive metrics windows. Name is "rule@series",
	// Time is the end of the sealing window, and Cause is the last stream
	// event that contributed to the breaching window, so the causal walk can
	// reach the load that tripped the alert.
	KindAlertFired
	// KindAlertResolved marks the first sealed window in which a fired alert's
	// series no longer breaches; its Cause is the matching KindAlertFired.
	KindAlertResolved

	numKinds // how many kinds there are: a new kind goes above this line
)

func (k EventKind) String() string {
	switch k {
	case KindJobBegin:
		return "job-begin"
	case KindJobEnd:
		return "job-end"
	case KindStageBegin:
		return "stage-begin"
	case KindStageEnd:
		return "stage-end"
	case KindTaskStart:
		return "task-start"
	case KindTaskEnd:
		return "task-end"
	case KindTaskLost:
		return "task-lost"
	case KindTransfer:
		return "transfer"
	case KindFailure:
		return "failure"
	case KindRetry:
		return "retry"
	case KindTransferDrop:
		return "transfer-drop"
	case KindTransferRetry:
		return "transfer-retry"
	case KindSpeculate:
		return "speculate"
	case KindCheckpoint:
		return "checkpoint"
	case KindRestore:
		return "restore"
	case KindJobQueued:
		return "job-queued"
	case KindJobAdmitted:
		return "job-admitted"
	case KindJobPreempted:
		return "job-preempted"
	case KindJobResumed:
		return "job-resumed"
	case KindJobRejected:
		return "job-rejected"
	case KindMachineJoin:
		return "machine-join"
	case KindMachineDrain:
		return "machine-drain"
	case KindPartitionMigrate:
		return "partition-migrate"
	case KindAlertFired:
		return "alert-fired"
	case KindAlertResolved:
		return "alert-resolved"
	default:
		return "unknown"
	}
}

// None marks an Event integer field as not applicable.
const None = -1

// Event is one structured observation from the simulation. Unused fields
// hold zero values (and None for Machine/Dst/Part/Cause when not
// applicable); see docs/METRICS.md for the field-by-field reference.
type Event struct {
	Kind EventKind `json:"kind"`
	// Seq is the event's position in the recorder's stream, assigned by
	// Emit. Because emission happens in the engine's serial event loop it
	// is identical for every worker count, so Seq is a stable event ID.
	Seq int `json:"seq"`
	// Cause is the Seq of the event that causally enabled this one — the
	// parent edge of the causal DAG surfer-analyze walks: a task's end
	// causes the transfers it emitted, a failure causes the retries of its
	// lost tasks, a stage's binding event causes the stage barrier, the
	// previous job's end causes the next job's begin. None for root events.
	Cause int `json:"cause"`
	// Job and Stage name the enclosing engine job and stage.
	Job   string `json:"job,omitempty"`
	Stage string `json:"stage,omitempty"`
	// Tenant names the owning tenant on job-service emissions (and on alert
	// events about a tenant series); empty on raw engine streams.
	Tenant string `json:"tenant,omitempty"`
	// Name labels the subject: the task name for task events and — so the
	// causal edge transfer → receiving task is visible — the destination
	// task's name for transfer events; empty otherwise.
	Name string `json:"name,omitempty"`
	// Machine is the executing machine (task events), the failed machine
	// (failure events) or the transfer source. None when not applicable.
	Machine int `json:"machine"`
	// Dst is the transfer destination machine; None otherwise.
	Dst int `json:"dst"`
	// Part is the partition the subject belongs to: the task's partition,
	// or — for transfers — the partition of the *destination* task, so
	// cross-partition traffic can be attributed. None for unpinned tasks.
	Part int `json:"part"`
	// Bytes is the transfer volume; 0 otherwise.
	Bytes int64 `json:"bytes,omitempty"`
	// Time is the virtual time the event logically occurred: issue time
	// for transfers, the clock for begin/end markers, the failure time.
	Time float64 `json:"time"`
	// Start and End bracket the busy interval of tasks and transfers.
	Start float64 `json:"start,omitempty"`
	End   float64 `json:"end,omitempty"`
	// Stall is a transfer's NIC queueing delay (Start - Time): how long
	// the bytes waited for the sender's egress and receiver's ingress
	// serialization.
	Stall float64 `json:"stall,omitempty"`
	// Incast reports that the receiver's ingress NIC was the binding
	// constraint for Stall — the all-to-all incast signature.
	Incast bool `json:"incast,omitempty"`
	// Attempt is the transfer attempt number for drop/retry events and
	// for transfers that finally succeeded after retries (0 = first try).
	Attempt int `json:"attempt,omitempty"`
	// Degraded reports a transfer ran over a link slowed by a transient
	// fault (its duration reflects the degraded bandwidth).
	Degraded bool `json:"degraded,omitempty"`
}

// Recorder collects the event stream of one or more runs. The zero value is
// ready to use; a nil *Recorder is a valid disabled recorder (every method
// is nil-safe), which is how the engine runs untraced with zero overhead.
// Events live in chunks that never move, so recording allocates about the
// stream's own size.
type Recorder struct {
	chunks    [][]Event // every chunk full but the last
	n         int
	observers []func(*Event)
}

// A new chunk holds as many events as the stream so far, within these bounds
// (the larger is about 1.4 MB).
const firstChunk, maxChunk = 256, 8192

// NewRecorder returns an enabled recorder.
func NewRecorder() *Recorder { return &Recorder{} }

// Enabled reports whether events are being collected.
func (r *Recorder) Enabled() bool { return r != nil }

// Observe registers fn to be called synchronously from Emit with every
// event after its Seq is assigned, in emission order. This is the live
// sampling hook: a metrics collector attached here sees exactly the stream a
// later reader of Events() would, so live and trace-derived series agree by
// construction. fn receives the stored event itself, not a copy, and must
// neither mutate it nor keep the pointer. Observers run in registration
// order inside the serial event loop; an observer may itself Emit (the
// nested event is stored and observed before the outer Emit returns).
// No-op on a nil recorder.
func (r *Recorder) Observe(fn func(*Event)) {
	if r == nil || fn == nil {
		return
	}
	r.observers = append(r.observers, fn)
}

// Emit appends one event to the stream, assigning its Seq, and returns the
// assigned Seq so emitters can thread it as the Cause of later events. On a
// nil (disabled) recorder it is a nil-check returning None immediately,
// allocating nothing.
func (r *Recorder) Emit(ev Event) int {
	if r == nil {
		return None
	}
	ev.Seq = r.n
	last := len(r.chunks) - 1
	if last < 0 || len(r.chunks[last]) == cap(r.chunks[last]) {
		r.chunks = append(r.chunks, make([]Event, 0, min(max(r.n, firstChunk), maxChunk)))
		last++
	}
	r.chunks[last] = append(r.chunks[last], ev)
	r.n++
	// The stored event, not &ev: taking the parameter's address would move
	// every event to the heap, the disabled recorder's included. Taken once,
	// because an observer's own Emit may open the next chunk.
	stored := &r.chunks[last][len(r.chunks[last])-1]
	for _, fn := range r.observers {
		fn(stored)
	}
	return ev.Seq
}

// Len reports the number of recorded events.
func (r *Recorder) Len() int {
	if r == nil {
		return 0
	}
	return r.n
}

// Events returns the recorded stream in emission order; callers must not
// mutate it. A stream held in more than one chunk is copied once into a
// single chunk of exactly its length, so until the next Emit further calls
// return the same slice and allocate nothing.
func (r *Recorder) Events() []Event {
	if r == nil || r.n == 0 {
		return nil
	}
	if len(r.chunks) > 1 {
		all := make([]Event, 0, r.n)
		for _, c := range r.chunks {
			all = append(all, c...)
		}
		r.chunks = [][]Event{all}
	}
	c := r.chunks[0]
	return c[:len(c):len(c)]
}
