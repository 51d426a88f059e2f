package trace

import (
	"fmt"
	"io"
)

// Chrome trace_event export: one JSON object in the format accepted by
// chrome://tracing and Perfetto (legacy JSON importer). The layout puts
// machines as rows against the virtual clock: each machine is a process
// (pid = machine ID, named "machine-NN") with three thread lanes, "tasks",
// "egress" and "ingress" (NIC busy intervals — serialized, so a lane's
// intervals never overlap), and a final "job" process carries the job and
// stage-barrier spans. docs/METRICS.md §4 lists every rendering.
//
// Times are microseconds of virtual time. The writer emits events in
// stream order, each row's fields in one fixed order (name, ph, cat, pid,
// tid, ts, dur, s, args) and every value in encoding/json's form through
// the raw codec's append helpers (events.go), so identical event streams
// produce byte-identical files — the property the determinism tests pin
// down. The encoding/json writer this replaced is the reference
// FuzzWriteChrome holds it to.

// Thread lane IDs within a machine process.
const (
	laneTasks = iota
	laneEgress
	laneIngress
)

// WriteChrome writes the event stream as Chrome trace_event JSON, one event
// per line inside the traceEvents array so diffs and golden files stay
// readable, in blocks of at least writeBlock bytes (the last one excepted).
// A time that is NaN or infinite in microseconds is an error, as it is for
// encoding/json.
func WriteChrome(w io.Writer, events []Event) error {
	maxMachine := None
	for i := range events {
		maxMachine = max(maxMachine, events[i].Machine, events[i].Dst)
	}
	jobPid := maxMachine + 1
	runs := Label(events)

	buf := make([]byte, 0, writeBlock+4096)
	buf = append(buf, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n"...)
	// scratch backs each row's args: the object's fields, each with a
	// leading comma that emit drops from the first. It is non-nil, so a row
	// whose args has no field still writes "args":{}.
	scratch := make([]byte, 0, 256)
	sep := ""
	var err error
	// usec appends a time in microseconds; JSON has no NaN or infinity.
	usec := func(dst []byte, key string, t float64) []byte {
		// Rounded first: a fused multiply-subtract in the check below would
		// read the product's rounding error, not NaN or infinity (DESIGN.md).
		us := float64(t * 1e6)
		if us-us != 0 && err == nil {
			err = fmt.Errorf("trace: chrome: unsupported float value %v", us)
		}
		return appendFloat(dst, key, us, false)
	}
	num := func(dst []byte, key string, v int) []byte { return appendInt(dst, key, int64(v), false) }
	// emit appends one row, flushing the buffer once it holds a block; a
	// nil args leaves the args object out.
	emit := func(name, ph, cat string, pid, tid int, ts, dur float64, scope string, args []byte) {
		buf = append(buf, sep...)
		sep = ",\n"
		buf = appendString(buf, `{"name":`, name)
		if name == "" { // which appendString leaves out, as omitempty would
			buf = append(buf, `{"name":""`...)
		}
		buf = appendString(buf, `,"ph":`, ph)
		buf = appendString(buf, `,"cat":`, cat)
		buf = num(buf, `,"pid":`, pid)
		buf = num(buf, `,"tid":`, tid)
		buf = usec(buf, `,"ts":`, ts)
		if ph == "X" {
			buf = usec(buf, `,"dur":`, dur)
		}
		buf = appendString(buf, `,"s":`, scope)
		if args != nil {
			buf = append(append(buf, `,"args":{`...), args[min(1, len(args)):]...)
			buf = append(buf, '}')
		}
		buf = append(buf, '}')
		if len(buf) >= writeBlock {
			if err == nil {
				_, err = w.Write(buf)
			}
			buf = buf[:0]
		}
	}
	meta := func(pid, tid int, name, value string) {
		emit(name, "M", "", pid, tid, 0, 0, "", appendString(scratch[:0], `,"name":`, value))
	}
	span := func(name, cat string, pid, tid int, start, end float64, args []byte) {
		emit(name, "X", cat, pid, tid, start, end-start, "", args)
	}
	instant := func(name, cat string, pid, tid int, at float64, scope string, args []byte) {
		emit(name, "i", cat, pid, tid, at, 0, scope, args)
	}
	taskArgs := func(ev *Event) []byte {
		if ev.Part == None {
			return nil
		}
		return num(scratch[:0], `,"part":`, ev.Part)
	}
	// link appends the payload every row of an event that held a NIC carries.
	link := func(dst []byte, ev *Event) []byte {
		return num(num(appendInt(dst, `,"bytes":`, ev.Bytes, false), `,"src":`, ev.Machine), `,"dst":`, ev.Dst)
	}
	// pair renders a transfer or a migration, which hold two NICs: a span on
	// the sender's egress lane and one on the receiver's ingress lane,
	// sharing one payload.
	pair := func(send, recv, cat string, ev *Event) {
		args := scratch[:0]
		if ev.Part != None {
			args = num(args, `,"part":`, ev.Part)
		}
		args = usec(link(args, ev), `,"stall_us":`, ev.Stall)
		if ev.Incast && ev.Kind == KindTransfer {
			args = append(args, `,"incast":true`...)
		}
		span(fmt.Sprintf("%sm%02d", send, ev.Dst), cat, ev.Machine, laneEgress, ev.Start, ev.End, args)
		span(fmt.Sprintf("%sm%02d", recv, ev.Machine), cat, ev.Dst, laneIngress, ev.Start, ev.End, args)
	}

	// Metadata: name every machine process and its lanes, then the job row.
	for m := 0; m <= maxMachine; m++ {
		meta(m, 0, "process_name", fmt.Sprintf("machine-%02d", m))
		for lane, name := range []string{"tasks", "egress", "ingress"} {
			meta(m, lane, "thread_name", name)
		}
	}
	meta(jobPid, 0, "process_name", "job")
	meta(jobPid, 0, "thread_name", "jobs")
	meta(jobPid, 1, "thread_name", "stages")

	for i := range events {
		ev := &events[i]
		switch ev.Kind {
		case KindJobBegin:
			if run := runs.Jobs[runs.Job[i]]; run.Ended {
				span(ev.Job, "job", jobPid, 0, ev.Time, run.End, nil)
			}
		case KindStageBegin:
			if run := runs.Stages[runs.Stage[i]]; run.Ended {
				span(ev.Stage, "stage", jobPid, 1, ev.Time, run.End, appendString(scratch[:0], `,"job":`, ev.Job))
			}
		case KindTaskEnd:
			span(ev.Name, "task", ev.Machine, laneTasks, ev.Start, ev.End, taskArgs(ev))
		case KindTaskLost:
			instant("lost:"+ev.Name, "failure", ev.Machine, laneTasks, ev.Time, "t", taskArgs(ev))
		case KindRetry:
			instant("retry:"+ev.Name, "failure", ev.Machine, laneTasks, ev.Time, "t", taskArgs(ev))
		case KindSpeculate:
			instant("speculate:"+ev.Name, "speculation", ev.Machine, laneTasks, ev.Time, "t", taskArgs(ev))
		case KindFailure:
			instant("machine-failure", "failure", ev.Machine, laneTasks, ev.Time, "p", nil)
		case KindMachineJoin, KindMachineDrain:
			instant(ev.Kind.String(), "elastic", ev.Machine, laneTasks, ev.Time, "p", nil)
		case KindCheckpoint, KindRestore:
			instant(ev.Kind.String(), "checkpoint", jobPid, 0, ev.Time, "p",
				appendString(appendInt(scratch[:0], `,"bytes":`, ev.Bytes, false), `,"job":`, ev.Job))
		case KindTransferDrop:
			// The failed attempt held the sender's egress NIC from Start until
			// the timeout at End: a span shows the wasted NIC time.
			span(fmt.Sprintf("drop→m%02d", ev.Dst), "fault", ev.Machine, laneEgress, ev.Start, ev.End, link(scratch[:0], ev))
		case KindTransferRetry:
			instant(fmt.Sprintf("transfer-retry→m%02d", ev.Dst), "fault", ev.Machine, laneEgress, ev.Time, "t",
				num(scratch[:0], `,"dst":`, ev.Dst))
		case KindTransfer:
			pair("send→", "recv←", "transfer", ev)
		case KindPartitionMigrate:
			// Labeled so drain traffic is distinguishable from app traffic.
			pair("migrate→", "migrate←", "elastic", ev)
		}
	}
	if err == nil {
		buf = append(buf, "\n]}\n"...)
		_, err = w.Write(buf)
	}
	return err
}
