package trace

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files")

// TestWriteChromeGolden pins the exporter's exact byte output for the
// hand-built stream. Run `go test ./internal/trace -update` after an
// intentional format change.
func TestWriteChromeGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteChrome(&buf, handStream()); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "chrome_golden.json")
	if *update {
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("reading golden (run with -update to create): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("exporter output differs from %s\ngot:\n%s", golden, buf.String())
	}
}

// TestWriteChromeParses checks the output is valid JSON with the structure
// Chrome's trace viewer expects.
func TestWriteChromeParses(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteChrome(&buf, handStream()); err != nil {
		t.Fatal(err)
	}
	var tf struct {
		DisplayTimeUnit string `json:"displayTimeUnit"`
		TraceEvents     []struct {
			Name string   `json:"name"`
			Ph   string   `json:"ph"`
			Pid  int      `json:"pid"`
			Tid  int      `json:"tid"`
			Ts   float64  `json:"ts"`
			Dur  *float64 `json:"dur"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &tf); err != nil {
		t.Fatalf("output is not valid JSON: %v", err)
	}
	if tf.DisplayTimeUnit != "ms" {
		t.Fatalf("displayTimeUnit = %q", tf.DisplayTimeUnit)
	}
	counts := map[string]int{}
	for _, ev := range tf.TraceEvents {
		counts[ev.Ph]++
		if ev.Ph == "X" {
			if ev.Dur == nil {
				t.Fatalf("complete event %q without dur", ev.Name)
			}
			if *ev.Dur < 0 || ev.Ts < 0 {
				t.Fatalf("negative timing on %q: ts=%v dur=%v", ev.Name, ev.Ts, *ev.Dur)
			}
		}
	}
	// handStream: 1 job span + 2 stage spans + 2 task spans + 2 transfers
	// (2 lanes each) = 9 "X"; failure + lost + retry = 3 "i"; metadata for
	// 2 machines (1 process + 3 lanes each) + job row (1 + 2) = 11 "M".
	if counts["X"] != 9 || counts["i"] != 3 || counts["M"] != 11 {
		t.Fatalf("phase counts = %v, want X:9 i:3 M:11", counts)
	}
}

// TestWriteChromeEmpty: an empty stream still yields a parseable file.
func TestWriteChromeEmpty(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteChrome(&buf, nil); err != nil {
		t.Fatal(err)
	}
	var tf map[string]any
	if err := json.Unmarshal(buf.Bytes(), &tf); err != nil {
		t.Fatalf("empty trace is not valid JSON: %v", err)
	}
}

// TestWriteChromeDeterministic: the same stream marshals to the same bytes.
func TestWriteChromeDeterministic(t *testing.T) {
	var a, b bytes.Buffer
	if err := WriteChrome(&a, handStream()); err != nil {
		t.Fatal(err)
	}
	if err := WriteChrome(&b, handStream()); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("two exports of the same stream differ")
	}
}

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

// WriteChromeReference is the encoding/json writer WriteChrome replaced,
// kept as it was for FuzzWriteChrome to hold WriteChrome's bytes and errors
// to (exported for the external test package only): one chromeEvent per
// row, its field order and omissions fixed by the struct tags.
func WriteChromeReference(w io.Writer, events []Event) error {
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
