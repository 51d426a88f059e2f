package trace

import (
	"bytes"
	"encoding/json"
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
// stream order with struct-driven field order and strconv float
// formatting, so identical event streams produce byte-identical files —
// the property the determinism tests pin down.

// Thread lane IDs within a machine process.
const (
	laneTasks = iota
	laneEgress
	laneIngress
)

// chromeEvent is one trace_event entry. Field order (and therefore output
// byte layout) is fixed by the struct; optional fields are omitted when
// empty so instant and metadata events stay minimal.
type chromeEvent struct {
	Name  string      `json:"name"`
	Ph    string      `json:"ph"`
	Cat   string      `json:"cat,omitempty"`
	Pid   int         `json:"pid"`
	Tid   int         `json:"tid"`
	Ts    float64     `json:"ts"`
	Dur   *float64    `json:"dur,omitempty"`
	Scope string      `json:"s,omitempty"`
	Args  *chromeArgs `json:"args,omitempty"`
}

// chromeArgs carries the structured payload of an event. Only the fields
// relevant to the event kind are set.
type chromeArgs struct {
	Name    string   `json:"name,omitempty"` // metadata events
	Part    *int     `json:"part,omitempty"`
	Bytes   *int64   `json:"bytes,omitempty"`
	Src     *int     `json:"src,omitempty"`
	Dst     *int     `json:"dst,omitempty"`
	StallUs *float64 `json:"stall_us,omitempty"`
	Incast  bool     `json:"incast,omitempty"`
	Job     string   `json:"job,omitempty"`
}

func usec(t float64) float64 { return t * 1e6 }

func ptrF(v float64) *float64 { return &v }
func ptrI(v int) *int         { return &v }
func ptrB(v int64) *int64     { return &v }

// WriteChrome writes the event stream as Chrome trace_event JSON, one event
// per line inside the traceEvents array so diffs and golden files stay
// readable, in blocks of at least writeBlock bytes (the last one excepted).
func WriteChrome(w io.Writer, events []Event) error {
	maxMachine := None
	for i := range events {
		maxMachine = max(maxMachine, events[i].Machine, events[i].Dst)
	}
	jobPid := maxMachine + 1

	runs := Label(events)

	buf := bytes.NewBufferString("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n")
	enc := json.NewEncoder(buf)
	var cur chromeEvent // emit encodes through one copy, not one per event
	sep := ""
	var err error
	emit := func(ce chromeEvent) {
		if err != nil {
			return
		}
		buf.WriteString(sep)
		sep = ",\n"
		cur = ce
		if err = enc.Encode(&cur); err != nil {
			return
		}
		buf.Truncate(buf.Len() - 1) // Encode's newline
		if buf.Len() >= writeBlock {
			_, err = w.Write(buf.Bytes())
			buf.Reset()
		}
	}
	meta := func(pid, tid int, name, value string) {
		emit(chromeEvent{Name: name, Ph: "M", Pid: pid, Tid: tid, Args: &chromeArgs{Name: value}})
	}
	span := func(name, cat string, pid, tid int, start, end float64, args *chromeArgs) {
		emit(chromeEvent{Name: name, Ph: "X", Cat: cat, Pid: pid, Tid: tid,
			Ts: usec(start), Dur: ptrF(usec(end - start)), Args: args})
	}
	instant := func(name, cat string, pid, tid int, at float64, scope string, args *chromeArgs) {
		emit(chromeEvent{Name: name, Ph: "i", Cat: cat, Pid: pid, Tid: tid, Ts: usec(at), Scope: scope, Args: args})
	}
	// pair renders a transfer or a migration, which hold two NICs: a span on
	// the sender's egress lane and one on the receiver's ingress lane,
	// sharing one payload and one dur.
	pair := func(send, recv, cat string, ev *Event) {
		args := &chromeArgs{Bytes: ptrB(ev.Bytes), Src: ptrI(ev.Machine), Dst: ptrI(ev.Dst),
			StallUs: ptrF(usec(ev.Stall)), Incast: ev.Incast && ev.Kind == KindTransfer}
		if ev.Part != None {
			args.Part = ptrI(ev.Part)
		}
		dur := ptrF(usec(ev.End - ev.Start))
		emit(chromeEvent{Name: fmt.Sprintf("%sm%02d", send, ev.Dst), Ph: "X", Cat: cat,
			Pid: ev.Machine, Tid: laneEgress, Ts: usec(ev.Start), Dur: dur, Args: args})
		emit(chromeEvent{Name: fmt.Sprintf("%sm%02d", recv, ev.Machine), Ph: "X", Cat: cat,
			Pid: ev.Dst, Tid: laneIngress, Ts: usec(ev.Start), Dur: dur, Args: args})
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
				span(ev.Stage, "stage", jobPid, 1, ev.Time, run.End, &chromeArgs{Job: ev.Job})
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
				&chromeArgs{Bytes: ptrB(ev.Bytes), Job: ev.Job})
		case KindTransferDrop:
			// The failed attempt held the sender's egress NIC from Start until
			// the timeout at End: a span shows the wasted NIC time.
			span(fmt.Sprintf("drop→m%02d", ev.Dst), "fault", ev.Machine, laneEgress, ev.Start, ev.End,
				&chromeArgs{Bytes: ptrB(ev.Bytes), Src: ptrI(ev.Machine), Dst: ptrI(ev.Dst)})
		case KindTransferRetry:
			instant(fmt.Sprintf("transfer-retry→m%02d", ev.Dst), "fault", ev.Machine, laneEgress, ev.Time, "t",
				&chromeArgs{Dst: ptrI(ev.Dst)})
		case KindTransfer:
			pair("send→", "recv←", "transfer", ev)
		case KindPartitionMigrate:
			// Labeled so drain traffic is distinguishable from app traffic.
			pair("migrate→", "migrate←", "elastic", ev)
		}
	}
	if err == nil {
		buf.WriteString("\n]}\n")
		_, err = w.Write(buf.Bytes())
	}
	return err
}

func taskArgs(ev *Event) *chromeArgs {
	if ev.Part == None {
		return nil
	}
	return &chromeArgs{Part: ptrI(ev.Part)}
}
