package engine

import "repro/internal/cluster"

// event kinds for the simulation queue, ordered by dispatch priority at
// equal times.
const (
	evTaskDone = iota
	evTransferDone
	evFailure
	evRecovery
	// evTransferRetry re-issues a dropped transfer after its backoff.
	evTransferRetry
	// evJoin brings a dormant elastic machine live (fault.MachineJoin).
	evJoin
	// evDrain starts a graceful decommission (fault.MachineDrain); the
	// event carries the drain deadline.
	evDrain
	// evDrainDeadline fires at a drain's deadline; if migration is still
	// incomplete the machine degrades into the ordinary death path.
	evDrainDeadline
)

type event struct {
	at   float64
	kind int
	seq  int // tie-break for determinism
	// sr is the stage run the event belongs to; events of a closed stage
	// are cancelled (Runner.peek skips them).
	sr *StageRun
	// machine is the machine a task ran on, or the one a failure or
	// membership event is about.
	machine cluster.MachineID
	// task events: the task's index in sr's stage; start and dur record the
	// attempt's actual start time and duration (slowdown-adjusted), so
	// accounting never has to re-derive them from fault-dependent state.
	task       int
	start, dur float64
	// transfer events
	transfer *pendingTransfer
	// recovery events carry the lost tasks, drains their deadline
	lost     []taskRef
	deadline float64
	// traceSeq is the Seq of the trace event whose consequence this heap
	// event is (the transfer for evTransferDone, the failure for evRecovery,
	// the drop for evTransferRetry); startSeq is the task-start Seq carried
	// to the matching evTaskDone. Both None when tracing is off.
	traceSeq int
	startSeq int
}

// eventQueue is a 4-ary min-heap of simulation events ordered by the strict
// total order (at, kind, seq) — seq is unique, so the pop sequence is fully
// determined regardless of internal layout — plus a freelist that recycles
// event records across pushes, stages and jobs. The event loop pops one
// event per task completion and per transfer; at millions of events the
// 4-ary layout halves the sift-down depth of a binary heap and the freelist
// keeps the loop allocation-free in steady state.
type eventQueue struct {
	h    []*event
	free []*event
}

func (q *eventQueue) Len() int { return len(q.h) }

func less(a, b *event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	if a.kind != b.kind {
		return a.kind < b.kind
	}
	return a.seq < b.seq
}

// alloc returns a zeroed event record, recycled when possible.
func (q *eventQueue) alloc() *event {
	if n := len(q.free); n > 0 {
		e := q.free[n-1]
		q.free[n-1] = nil
		q.free = q.free[:n-1]
		*e = event{}
		return e
	}
	return &event{}
}

// recycle returns a popped event to the freelist. The caller must not hold
// the record past this call.
func (q *eventQueue) recycle(e *event) { q.free = append(q.free, e) }

func (q *eventQueue) push(e *event) {
	q.h = append(q.h, e)
	i := len(q.h) - 1
	for i > 0 {
		p := (i - 1) / 4
		if !less(q.h[i], q.h[p]) {
			break
		}
		q.h[i], q.h[p] = q.h[p], q.h[i]
		i = p
	}
}

func (q *eventQueue) pop() *event {
	top := q.h[0]
	n := len(q.h) - 1
	q.h[0] = q.h[n]
	q.h[n] = nil
	q.h = q.h[:n]
	i := 0
	for {
		first := i*4 + 1
		if first >= n {
			break
		}
		best := first
		last := first + 4
		if last > n {
			last = n
		}
		for c := first + 1; c < last; c++ {
			if less(q.h[c], q.h[best]) {
				best = c
			}
		}
		if !less(q.h[best], q.h[i]) {
			break
		}
		q.h[i], q.h[best] = q.h[best], q.h[i]
		i = best
	}
	return top
}
