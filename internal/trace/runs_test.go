package trace_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/analyze"
	"repro/internal/cluster"
	"repro/internal/metrics"
	"repro/internal/trace"
)

// interleavedRuns is two runs of job a, each with a stage s, begun at t=0
// and t=1. The job and stage ends come at t=3 and t=5, and a transfer on the
// level-0 link of a two-machine T1 goes at t=2 and at t=4. Each event is
// caused by the one before it, so the critical path runs through all ten.
func interleavedRuns() []trace.Event {
	var events []trace.Event
	add := func(kind trace.EventKind, at float64, stage string) {
		ev := trace.Event{Kind: kind, Seq: len(events), Cause: len(events) - 1, Job: "a", Stage: stage,
			Machine: trace.None, Dst: trace.None, Part: trace.None, Time: at}
		if kind == trace.KindTransfer {
			ev.Machine, ev.Dst, ev.Part, ev.Bytes, ev.Start, ev.End = 0, 1, 0, 100, at, at+0.5
		}
		events = append(events, ev)
	}
	add(trace.KindJobBegin, 0, "")
	add(trace.KindStageBegin, 0, "s")
	add(trace.KindJobBegin, 1, "")
	add(trace.KindStageBegin, 1, "s")
	add(trace.KindTransfer, 2, "s")
	add(trace.KindStageEnd, 3, "s")
	add(trace.KindJobEnd, 3, "")
	add(trace.KindTransfer, 4, "s")
	add(trace.KindStageEnd, 5, "s")
	add(trace.KindJobEnd, 5, "")
	return events
}

// TestInterleavedRuns: every fold of the event stream renders the
// interleaved stream by Label's one rule. Each end resolves to run 2, the
// latest-begun run of a: the end at t=3 closes it and the one at t=5 closes
// nothing, so run 2 is [1..3] and run 1 never closes. Both transfers belong
// to run 2, the t=4 one after its end.
func TestInterleavedRuns(t *testing.T) {
	events := interleavedRuns()

	var summary []string
	for _, jb := range trace.Summarize(events).Jobs {
		summary = append(summary, fmt.Sprintf("%s [%g..%g]", jb.Name, jb.Begin, jb.End))
		for _, sb := range jb.Stages {
			sent := 0
			for _, mb := range sb.Machines {
				sent += mb.Transfers
			}
			summary = append(summary, fmt.Sprintf("%s/%s [%g..%g] transfers=%d", jb.Name, sb.Name, sb.Begin, sb.End, sent))
		}
	}
	check(t, "Summarize", summary, []string{
		"a [0..0]", "a/s [0..0] transfers=0",
		"a [1..3]", "a/s [1..3] transfers=2",
	})

	var buf bytes.Buffer
	if err := trace.WriteChrome(&buf, events); err != nil {
		t.Fatal(err)
	}
	var tf struct {
		TraceEvents []struct {
			Name, Cat string
			Ts        float64
			Dur       float64
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &tf); err != nil {
		t.Fatal(err)
	}
	var spans []string
	for _, ce := range tf.TraceEvents {
		if ce.Cat == "job" || ce.Cat == "stage" {
			spans = append(spans, fmt.Sprintf("%s %s [%g..%g]", ce.Cat, ce.Name, ce.Ts/1e6, (ce.Ts+ce.Dur)/1e6))
		}
	}
	check(t, "WriteChrome", spans, []string{"job a [1..3]", "stage s [1..3]"})

	rep, err := analyze.Analyze(events, cluster.NewT1(2))
	if err != nil {
		t.Fatal(err)
	}
	var rows []string
	for _, row := range rep.Stages {
		rows = append(rows, fmt.Sprintf("%s %g", row.Label, row.Total))
	}
	check(t, "Analyze", rows, []string{"a#2 1", "a#2/s 4"})

	var wins []string
	for _, w := range metrics.JobWindows(events, cluster.NewT1(2)) {
		wins = append(wins, fmt.Sprintf("%s [%g..%g] util=%g", w.Job, w.Start, w.End, w.MaxLevel0Util))
	}
	check(t, "JobWindows", wins, []string{"a [1..3] util=0.5"})
}

// TestLabel: Label on small streams, one rule at a time. Each event is a
// kind, a job, a stage and a time; want gives every event's job run and
// stage run, and the runs with their spans.
func TestLabel(t *testing.T) {
	type ev struct {
		kind       trace.EventKind
		job, stage string
		at         float64
	}
	const (
		jb, je = trace.KindJobBegin, trace.KindJobEnd
		sb, se = trace.KindStageBegin, trace.KindStageEnd
		task   = trace.KindTaskEnd
	)
	open := func(name string, at float64) trace.Run { return trace.Run{Name: name, Begin: at, End: at} }
	closed := func(name string, begin, end float64) trace.Run {
		return trace.Run{Name: name, Begin: begin, End: end, Ended: true}
	}
	for _, tc := range []struct {
		name         string
		stream       []ev
		job, stage   []int32
		jobs, stages []trace.Run
	}{
		{
			name:   "an event before any begin",
			stream: []ev{{task, "a", "s", 0}, {jb, "a", "", 1}, {sb, "a", "s", 1}, {task, "a", "s", 2}},
			job:    []int32{-1, 0, 0, 0}, stage: []int32{-1, -1, 0, 0},
			jobs: []trace.Run{open("a", 1)}, stages: []trace.Run{open("s", 1)},
		},
		{
			name:   "an event with no job",
			stream: []ev{{jb, "a", "", 0}, {sb, "a", "s", 0}, {trace.KindFailure, "", "", 1}, {task, "", "s", 2}},
			job:    []int32{0, 0, -1, -1}, stage: []int32{-1, 0, -1, -1},
			jobs: []trace.Run{open("a", 0)}, stages: []trace.Run{open("s", 0)},
		},
		{
			name:   "a stage begun under a job that never began",
			stream: []ev{{sb, "b", "s", 0}, {task, "b", "s", 1}, {se, "b", "s", 2}, {jb, "b", "", 3}, {task, "b", "s", 4}},
			job:    []int32{-1, -1, -1, 0, 0}, stage: []int32{0, 0, 0, -1, -1},
			jobs: []trace.Run{open("b", 3)}, stages: []trace.Run{closed("s", 0, 2)},
		},
		{
			name:   "a second end matches nothing",
			stream: []ev{{jb, "a", "", 0}, {sb, "a", "s", 0}, {se, "a", "s", 1}, {je, "a", "", 1}, {se, "a", "s", 2}, {je, "a", "", 3}},
			job:    []int32{0, 0, 0, 0, 0, 0}, stage: []int32{-1, 0, 0, -1, 0, -1},
			jobs: []trace.Run{closed("a", 0, 1)}, stages: []trace.Run{closed("s", 0, 1)},
		},
		{
			name: "concurrent jobs each keep their own events",
			stream: []ev{{jb, "a", "", 0}, {jb, "b", "", 0}, {sb, "a", "s", 1}, {sb, "b", "s", 1},
				{task, "a", "s", 2}, {task, "b", "s", 2}, {je, "b", "", 3}, {task, "a", "s", 4}, {je, "a", "", 5}},
			job: []int32{0, 1, 0, 1, 0, 1, 1, 0, 0}, stage: []int32{-1, -1, 0, 1, 0, 1, -1, 0, -1},
			jobs:   []trace.Run{closed("a", 0, 5), closed("b", 0, 3)},
			stages: []trace.Run{open("s", 1), open("s", 1)},
		},
		{
			// Each second event names what its predecessor names, and a
			// begin comes between them: the previous-event check must not
			// hand it the old run.
			name: "a begin between two events naming the same job and stage",
			stream: []ev{{jb, "a", "", 0}, {task, "a", "", 1}, {jb, "a", "", 2}, {task, "a", "", 3},
				{sb, "a", "s", 4}, {task, "a", "s", 5}, {sb, "a", "s", 6}, {task, "a", "s", 7}},
			job: []int32{0, 0, 1, 1, 1, 1, 1, 1}, stage: []int32{-1, -1, -1, -1, 0, 0, 1, 1},
			jobs:   []trace.Run{open("a", 0), open("a", 2)},
			stages: []trace.Run{open("s", 4), open("s", 6)},
		},
	} {
		events := make([]trace.Event, len(tc.stream))
		for i, e := range tc.stream {
			events[i] = trace.Event{Kind: e.kind, Seq: i, Cause: i - 1, Job: e.job, Stage: e.stage, Time: e.at}
		}
		r := trace.Label(events)
		if !reflect.DeepEqual(r.Job, tc.job) || !reflect.DeepEqual(r.Stage, tc.stage) {
			t.Errorf("%s: events in job runs %v, stage runs %v; want %v, %v", tc.name, r.Job, r.Stage, tc.job, tc.stage)
		}
		if !reflect.DeepEqual(r.Jobs, tc.jobs) || !reflect.DeepEqual(r.Stages, tc.stages) {
			t.Errorf("%s: job runs %+v, stage runs %+v; want %+v, %+v", tc.name, r.Jobs, r.Stages, tc.jobs, tc.stages)
		}
	}
}

func check(t *testing.T, fold string, got, want []string) {
	t.Helper()
	if !reflect.DeepEqual(got, want) {
		t.Errorf("%s renders\n %q\nwant\n %q", fold, got, want)
	}
}
