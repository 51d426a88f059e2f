package analyze

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/trace"
)

// Edge-of-envelope streams: the analyzer must reject unusable input with a
// descriptive error and keep its invariants on minimal or oddly-terminated
// streams — never panic, never return a report that doesn't sum.

func TestAnalyzeEmptyStream(t *testing.T) {
	rep, err := Analyze(nil, nil)
	if err == nil {
		t.Fatalf("empty stream accepted: %+v", rep)
	}
	if !strings.Contains(err.Error(), "no completed job") {
		t.Errorf("empty-stream error %q should say no completed job", err)
	}
	if rep2, err2 := Analyze([]trace.Event{}, nil); err2 == nil {
		t.Fatalf("zero-length stream accepted: %+v", rep2)
	}
}

func TestAnalyzeSingleEventStream(t *testing.T) {
	// A lone job-begin: a job started but the trace carries no completion.
	events := []trace.Event{
		{Seq: 0, Kind: trace.KindJobBegin, Time: 0, Job: "solo", Cause: trace.None},
	}
	if rep, err := Analyze(events, nil); err == nil {
		t.Fatalf("job with no end accepted: %+v", rep)
	} else if !strings.Contains(err.Error(), "no completed job") {
		t.Errorf("error %q should say no completed job", err)
	}
	// A lone scheduler event: a job queued, nothing ever ran.
	events = []trace.Event{
		{Seq: 0, Kind: trace.KindJobQueued, Time: 0, Job: "solo", Cause: trace.None},
	}
	if rep, err := Analyze(events, nil); err == nil {
		t.Fatalf("queue-only stream accepted: %+v", rep)
	}
}

// TestAnalyzeTrailingFailure: a stream whose final events are failures
// after the last job-end — a machine died while the cluster wound down.
// The analyzer must anchor the makespan at the job-end, attribute fully,
// and not trip over the trailing instants.
func TestAnalyzeTrailingFailure(t *testing.T) {
	events := []trace.Event{
		{Seq: 0, Kind: trace.KindJobBegin, Time: 0, Job: "j", Cause: trace.None},
		{Seq: 1, Kind: trace.KindStageBegin, Time: 0, Job: "j", Stage: "s", Cause: 0},
		{Seq: 2, Kind: trace.KindTaskStart, Time: 0, Job: "j", Stage: "s", Name: "t", Machine: 0, Start: 0, End: 0.5, Cause: 1},
		{Seq: 3, Kind: trace.KindTaskEnd, Time: 0.5, Job: "j", Stage: "s", Name: "t", Machine: 0, Start: 0, End: 0.5, Cause: 2},
		{Seq: 4, Kind: trace.KindStageEnd, Time: 0.5, Job: "j", Stage: "s", Cause: 3},
		{Seq: 5, Kind: trace.KindJobEnd, Time: 0.5, Job: "j", Cause: 4},
		{Seq: 6, Kind: trace.KindFailure, Time: 0.7, Machine: 2, Cause: trace.None},
		{Seq: 7, Kind: trace.KindFailure, Time: 0.9, Machine: 3, Cause: trace.None},
	}
	rep, err := Analyze(events, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Makespan != 0.5 {
		t.Errorf("makespan %g, want 0.5 (job-end, not the trailing failure)", rep.Makespan)
	}
	var sum float64
	for _, c := range Categories {
		sum += rep.Blame[c]
	}
	if math.Abs(sum-rep.Makespan) > 1e-12 {
		t.Errorf("blame sums to %g, makespan %g", sum, rep.Makespan)
	}
	if math.Abs(rep.Blame[CatCompute]-0.5) > 1e-12 {
		t.Errorf("compute blame %g, want 0.5", rep.Blame[CatCompute])
	}
}

// TestAnalyzeRejectsMachinelessTaskEnd: a task-end on machine -1 has no
// machine to charge its compute to, and one on machine 1<<33 would size the
// per-machine compute table past any cluster; each stream is refused with
// an error naming the event, not folded into an index out of range or out
// of memory.
func TestAnalyzeRejectsMachinelessTaskEnd(t *testing.T) {
	for _, machine := range []int{trace.None, 1 << 33} {
		events := []trace.Event{
			{Seq: 0, Kind: trace.KindJobBegin, Time: 0, Job: "j", Machine: trace.None, Cause: trace.None},
			{Seq: 1, Kind: trace.KindTaskEnd, Time: 1, Job: "j", Machine: machine, End: 1, Cause: 0},
			{Seq: 2, Kind: trace.KindJobEnd, Time: 1, Job: "j", Machine: trace.None, Cause: 1},
		}
		want := fmt.Sprintf("event 1 is a task-end on machine %d", machine)
		if rep, err := Analyze(events, nil); err == nil {
			t.Fatalf("task-end on machine %d accepted with %d compute entries", machine, len(rep.MachineCompute))
		} else if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q should name event 1 and its machine", err)
		}
	}
}

// TestAnalyzeRejectsCorruptSeq: reordered or truncated streams (seq gaps)
// are refused with a descriptive error, not analyzed partially.
func TestAnalyzeRejectsCorruptSeq(t *testing.T) {
	events := []trace.Event{
		{Seq: 0, Kind: trace.KindJobBegin, Time: 0, Job: "j", Cause: trace.None},
		{Seq: 2, Kind: trace.KindJobEnd, Time: 1, Job: "j", Cause: 0},
	}
	if _, err := Analyze(events, nil); err == nil {
		t.Fatal("seq-gap stream accepted")
	} else if !strings.Contains(err.Error(), "reordered or truncated") {
		t.Errorf("error %q should flag reordering/truncation", err)
	}
	events = []trace.Event{
		{Seq: 0, Kind: trace.KindJobBegin, Time: 0, Job: "j", Cause: trace.None},
		{Seq: 1, Kind: trace.KindJobEnd, Time: 1, Job: "j", Cause: 5},
	}
	if _, err := Analyze(events, nil); err == nil {
		t.Fatal("acausal stream accepted")
	} else if !strings.Contains(err.Error(), "acausal") {
		t.Errorf("error %q should flag the acausal edge", err)
	}
}
