// Package tracetest builds event streams for the tests and benchmarks of the
// packages that encode, decode and fold them.
package tracetest

import (
	"strconv"

	"repro/internal/trace"
)

// Capture returns a deterministic synthetic stream of at least n events,
// shaped like a job-service run on the given number of machines: queued and
// admitted jobs of three tenants, each two stages of pinned tasks that end in
// a fan of NIC transfers, one in fifty of which is first dropped and retried.
// Identical arguments give identical streams.
func Capture(n, machines int) []trace.Event {
	rec := trace.NewRecorder()
	Record(rec, n, machines)
	return rec.Events()
}

// Record emits Capture's stream into rec, so an observer attached to rec
// sees it live, until rec holds at least n events.
func Record(rec *trace.Recorder, n, machines int) {
	x := uint64(42)
	next := func(mod int) int {
		x = x*6364136223846793005 + 1442695040888963407
		return int(x>>33) % mod
	}
	micros := func(mod int) float64 { return float64(1+next(mod)) / 3e6 }
	none := trace.Event{Cause: trace.None, Machine: trace.None, Dst: trace.None, Part: trace.None}

	t := 0.0
	for j := 0; rec.Len() < n; j++ {
		job := none
		job.Job, job.Tenant, job.Time = "job-"+strconv.Itoa(j)+"/nr", "tenant-"+strconv.Itoa(j%3), t
		mark := func(kind trace.EventKind, cause int, at float64) int {
			ev := job
			ev.Kind, ev.Cause, ev.Time = kind, cause, at
			return rec.Emit(ev)
		}
		cause := mark(trace.KindJobQueued, trace.None, t)
		cause = mark(trace.KindJobAdmitted, cause, t+micros(900))
		cause = mark(trace.KindJobBegin, cause, t+micros(900))
		for _, stage := range []string{"transfer", "combine"} {
			job.Stage = stage
			begin := mark(trace.KindStageBegin, cause, t)
			cause = begin
			for p := 0; p < 4*machines; p++ {
				task := job
				task.Name, task.Machine, task.Part = stage+"-p"+strconv.Itoa(p), p%machines, p
				task.Kind, task.Cause = trace.KindTaskStart, begin
				task.Start = t + micros(1000)
				task.Time = task.Start
				started := rec.Emit(task)
				task.Kind, task.Cause = trace.KindTaskEnd, started
				task.End = task.Start + micros(5000)
				task.Time = task.End
				ended := rec.Emit(task)
				for f := 0; f < 8; f++ {
					xfer := task
					xfer.Kind, xfer.Cause = trace.KindTransfer, ended
					xfer.Dst = next(machines)
					xfer.Part = next(4 * machines)
					xfer.Name = "combine-p" + strconv.Itoa(xfer.Part)
					xfer.Bytes = int64(1 + next(1<<20))
					xfer.Stall = micros(300)
					xfer.Start = xfer.Time + xfer.Stall
					xfer.End = xfer.Start + micros(2000)
					xfer.Incast = next(4) == 0
					if next(50) == 0 {
						drop := xfer
						drop.Kind, drop.Bytes = trace.KindTransferDrop, 0
						xfer.Cause = rec.Emit(drop)
						retry := xfer
						retry.Kind, retry.Attempt, retry.Time = trace.KindTransferRetry, 1, drop.End
						retry.Start, retry.End, retry.Stall, retry.Incast = 0, 0, 0, false
						xfer.Cause = rec.Emit(retry)
						xfer.Attempt, xfer.Degraded = 1, true
						xfer.Time = drop.End
						xfer.Start = xfer.Time + xfer.Stall
						xfer.End = xfer.Start + micros(2000)
					}
					cause = rec.Emit(xfer)
				}
			}
			t += 0.01
			cause = mark(trace.KindStageEnd, cause, t)
		}
		job.Stage = ""
		mark(trace.KindJobEnd, cause, t)
	}
}
