package trace

import (
	"reflect"
	"runtime"
	"testing"
)

func TestRecorderBasics(t *testing.T) {
	r := NewRecorder()
	if !r.Enabled() {
		t.Fatal("NewRecorder not enabled")
	}
	if r.Len() != 0 {
		t.Fatalf("fresh recorder has %d events", r.Len())
	}
	r.Emit(Event{Kind: KindJobBegin, Job: "j"})
	r.Emit(Event{Kind: KindJobEnd, Job: "j", Time: 1})
	if r.Len() != 2 {
		t.Fatalf("Len = %d, want 2", r.Len())
	}
	evs := r.Events()
	if evs[0].Kind != KindJobBegin || evs[1].Kind != KindJobEnd {
		t.Fatalf("events out of order: %v, %v", evs[0].Kind, evs[1].Kind)
	}
}

func TestNilRecorderIsDisabled(t *testing.T) {
	var r *Recorder
	if r.Enabled() {
		t.Fatal("nil recorder reports enabled")
	}
	r.Emit(Event{Kind: KindTransfer}) // must not panic
	if r.Len() != 0 || r.Events() != nil {
		t.Fatal("nil recorder holds events")
	}
}

// TestObserverEmitsAcrossChunks: an observer that emits from inside Observe
// (as a live collector's alerts do) may open a new chunk; every observer
// registered after it must still be handed the outer event, and the stream
// must keep emission order with Seq equal to position. Every outer event
// triggers a nested one, and one leading event shifts the pairs by one, so
// between the two runs an outer event lands on the last slot of every chunk.
func TestObserverEmitsAcrossChunks(t *testing.T) {
	for lead := range 2 {
		r := NewRecorder()
		r.Observe(func(ev *Event) {
			if ev.Kind == KindTaskStart {
				r.Emit(Event{Kind: KindTaskEnd, Cause: ev.Seq})
			}
		})
		var seen []Event
		r.Observe(func(ev *Event) { seen = append(seen, *ev) })
		for range lead {
			r.Emit(Event{Kind: KindJobBegin, Cause: None})
		}
		const outer = 5000 // past several chunk boundaries
		for range outer {
			seq := r.Emit(Event{Kind: KindTaskStart, Cause: None})
			// The second observer saw the nested event, then this one.
			if n := len(seen); n < 2 || seen[n-1].Seq != seq || seen[n-1].Kind != KindTaskStart ||
				seen[n-2].Seq != seq+1 || seen[n-2].Cause != seq {
				t.Fatalf("lead %d: outer event %d: the last two observed are %+v", lead, seq, seen[max(0, n-2):])
			}
		}
		evs := r.Events()
		if len(evs) != lead+2*outer || r.Len() != len(evs) || len(seen) != len(evs) {
			t.Fatalf("lead %d: %d events, Len %d, %d observed; want %d", lead, len(evs), r.Len(), len(seen), lead+2*outer)
		}
		for i, ev := range evs {
			want := KindTaskStart
			if i < lead {
				want = KindJobBegin
			} else if (i-lead)%2 == 1 {
				want = KindTaskEnd
			}
			if ev.Seq != i || ev.Kind != want {
				t.Fatalf("lead %d: event %d is %v with seq %d, want %v", lead, i, ev.Kind, ev.Seq, want)
			}
		}
	}
}

// TestEventsAllocatesOnce: the contiguous stream is built once and then
// returned as is until the next Emit.
func TestEventsAllocatesOnce(t *testing.T) {
	r := NewRecorder()
	for range 3 * maxChunk {
		r.Emit(Event{Kind: KindTransfer})
	}
	first := r.Events()
	if allocs := testing.AllocsPerRun(10, func() { r.Events() }); allocs != 0 {
		t.Fatalf("Events with no Emit between calls allocates %.0f objects", allocs)
	}
	r.Emit(Event{Kind: KindJobEnd})
	if evs := r.Events(); len(evs) != len(first)+1 || evs[len(first)].Kind != KindJobEnd {
		t.Fatalf("after one more Emit, Events returned %d events (had %d)", len(evs), len(first))
	}
}

// TestRecordingAllocatesTheStream: recording allocates in proportion to the
// events kept, not to the copies a growing slice leaves behind.
func TestRecordingAllocatesTheStream(t *testing.T) {
	const n = 100_000
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	r := NewRecorder()
	for range n {
		r.Emit(Event{Kind: KindTransfer})
	}
	runtime.ReadMemStats(&after)
	size := float64(n) * float64(reflect.TypeOf(Event{}).Size())
	if got := float64(after.TotalAlloc - before.TotalAlloc); got > 1.15*size {
		t.Fatalf("recording %d events (%.1f MB) allocated %.1f MB, %.2f× their size", n, size/1e6, got/1e6, got/size)
	}
}

// TestDisabledRecorderAllocatesNothing pins the zero-overhead-when-disabled
// contract: emitting through a nil recorder performs no allocation, so the
// engine's untraced hot path stays free.
func TestDisabledRecorderAllocatesNothing(t *testing.T) {
	var r *Recorder
	ev := Event{Kind: KindTransfer, Job: "j", Stage: "s", Machine: 1, Dst: 2, Bytes: 1 << 20}
	allocs := testing.AllocsPerRun(1000, func() {
		r.Emit(ev)
	})
	if allocs != 0 {
		t.Fatalf("disabled Emit allocates %.1f objects per call, want 0", allocs)
	}
}

func TestEventKindStrings(t *testing.T) {
	kinds := []EventKind{KindJobBegin, KindJobEnd, KindStageBegin, KindStageEnd,
		KindTaskStart, KindTaskEnd, KindTaskLost, KindTransfer, KindFailure, KindRetry,
		KindTransferDrop, KindTransferRetry, KindSpeculate, KindCheckpoint, KindRestore}
	seen := make(map[string]bool)
	for _, k := range kinds {
		s := k.String()
		if s == "" || s == "unknown" {
			t.Fatalf("kind %d has no name", k)
		}
		if seen[s] {
			t.Fatalf("duplicate kind name %q", s)
		}
		seen[s] = true
	}
	if EventKind(250).String() != "unknown" {
		t.Fatal("out-of-range kind should stringify as unknown")
	}
}

// handStream is a two-stage job on two machines with one transfer each way
// plus a failure/retry pair, exercising every Summarize path.
func handStream() []Event {
	return []Event{
		{Kind: KindJobBegin, Job: "j1", Time: 0},
		{Kind: KindStageBegin, Job: "j1", Stage: "s1", Time: 0},
		{Kind: KindTaskStart, Job: "j1", Stage: "s1", Name: "t0", Machine: 0, Part: 0, Time: 0, Start: 0},
		{Kind: KindTaskEnd, Job: "j1", Stage: "s1", Name: "t0", Machine: 0, Part: 0, Time: 2, Start: 0, End: 2},
		// m0 -> m1, issued at 2, NICs free immediately: no stall.
		{Kind: KindTransfer, Job: "j1", Stage: "s1", Machine: 0, Dst: 1, Part: 1, Bytes: 100, Time: 2, Start: 2, End: 3},
		// m1 -> m0, issued at 2 but delayed to 3 by m0's busy ingress: incast.
		{Kind: KindTransfer, Job: "j1", Stage: "s1", Machine: 1, Dst: 0, Part: 0, Bytes: 50, Time: 2, Start: 3, End: 3.5, Stall: 1, Incast: true},
		{Kind: KindStageEnd, Job: "j1", Stage: "s1", Time: 3.5},
		{Kind: KindStageBegin, Job: "j1", Stage: "s2", Time: 3.5},
		{Kind: KindFailure, Job: "j1", Stage: "s2", Machine: 1, Time: 4},
		{Kind: KindTaskLost, Job: "j1", Stage: "s2", Name: "t1", Machine: 1, Part: 1, Time: 4},
		{Kind: KindRetry, Job: "j1", Stage: "s2", Name: "t1", Machine: 0, Part: 1, Time: 5},
		{Kind: KindTaskEnd, Job: "j1", Stage: "s2", Name: "t1", Machine: 0, Part: 1, Time: 7, Start: 5, End: 7},
		{Kind: KindStageEnd, Job: "j1", Stage: "s2", Time: 7},
		{Kind: KindJobEnd, Job: "j1", Time: 7},
	}
}

func TestSummarize(t *testing.T) {
	b := Summarize(handStream())
	if len(b.Jobs) != 1 {
		t.Fatalf("jobs = %d, want 1", len(b.Jobs))
	}
	jb := b.Jobs[0]
	if jb.Name != "j1" || jb.Begin != 0 || jb.End != 7 {
		t.Fatalf("job = %q [%v, %v]", jb.Name, jb.Begin, jb.End)
	}
	if len(jb.Stages) != 2 {
		t.Fatalf("stages = %d, want 2", len(jb.Stages))
	}
	s1 := jb.Stages[0]
	if s1.Name != "s1" || s1.End != 3.5 {
		t.Fatalf("stage1 = %q end %v", s1.Name, s1.End)
	}
	if len(s1.Machines) != 2 {
		t.Fatalf("stage1 machines = %d, want 2", len(s1.Machines))
	}
	m0, m1 := s1.Machines[0], s1.Machines[1]
	if m0.Machine != 0 || m1.Machine != 1 {
		t.Fatalf("machines not sorted: %d, %d", m0.Machine, m1.Machine)
	}
	if m0.ComputeSeconds != 2 || m0.TasksRun != 1 {
		t.Fatalf("m0 compute = %v / %d tasks", m0.ComputeSeconds, m0.TasksRun)
	}
	if m0.EgressBytes != 100 || m0.IngressBytes != 50 {
		t.Fatalf("m0 egress/ingress bytes = %d/%d", m0.EgressBytes, m0.IngressBytes)
	}
	if m0.EgressBusySeconds != 1 || m0.IngressBusySeconds != 0.5 {
		t.Fatalf("m0 NIC busy = %v/%v", m0.EgressBusySeconds, m0.IngressBusySeconds)
	}
	if m0.IncastStallSeconds != 1 {
		t.Fatalf("m0 incast stall = %v, want 1 (it was the congested receiver)", m0.IncastStallSeconds)
	}
	if m1.StallSeconds != 1 {
		t.Fatalf("m1 stall = %v, want 1 (its transfer queued)", m1.StallSeconds)
	}
	s2 := jb.Stages[1]
	fm := s2.machine(1)
	if !fm.Failed || fm.TasksLost != 1 {
		t.Fatalf("machine 1 in s2: failed=%v lost=%d", fm.Failed, fm.TasksLost)
	}
	if s2.machine(0).Retries != 1 {
		t.Fatalf("machine 0 retries = %d", s2.machine(0).Retries)
	}

	// Cross-stage aggregation and cluster-wide invariants.
	per := b.PerMachine()
	if len(per) != 2 {
		t.Fatalf("PerMachine rows = %d", len(per))
	}
	if per[0].TasksRun != 2 {
		t.Fatalf("m0 total tasks = %d, want 2", per[0].TasksRun)
	}
	tot := b.Totals()
	if tot.EgressBytes != tot.IngressBytes {
		t.Fatalf("cluster egress %d != ingress %d", tot.EgressBytes, tot.IngressBytes)
	}
	if tot.EgressBusySeconds != tot.IngressBusySeconds {
		t.Fatalf("cluster egress busy %v != ingress busy %v", tot.EgressBusySeconds, tot.IngressBusySeconds)
	}
	if tot.EgressBytes != 150 {
		t.Fatalf("total bytes = %d, want 150", tot.EgressBytes)
	}
}

func TestSummarizeUntracked(t *testing.T) {
	b := Summarize([]Event{
		{Kind: KindTaskEnd, Machine: 3, Start: 0, End: 1},
	})
	if len(b.Jobs) != 1 || b.Jobs[0].Name != "(untracked)" {
		t.Fatalf("untracked events not gathered: %+v", b.Jobs)
	}
}

// TestSummarizeFaultKinds covers the expanded fault model's event kinds:
// dropped transfers with their wasted NIC time, backoff retries, backup
// task launches, and driver-level checkpoint/restore markers.
func TestSummarizeFaultKinds(t *testing.T) {
	b := Summarize([]Event{
		{Kind: KindJobBegin, Job: "j", Time: 0},
		{Kind: KindStageBegin, Job: "j", Stage: "s", Time: 0},
		{Kind: KindTransferDrop, Job: "j", Stage: "s", Machine: 0, Dst: 1, Bytes: 100, Time: 0, Start: 0.5, End: 1.5},
		{Kind: KindTransferRetry, Job: "j", Stage: "s", Machine: 0, Dst: 1, Time: 2, Attempt: 1},
		{Kind: KindTransfer, Job: "j", Stage: "s", Machine: 0, Dst: 1, Part: 0, Bytes: 100, Time: 2, Start: 2, End: 3, Attempt: 1},
		{Kind: KindSpeculate, Job: "j", Stage: "s", Name: "t0", Machine: 2, Part: 0, Time: 2.5},
		{Kind: KindStageEnd, Job: "j", Stage: "s", Time: 3},
		{Kind: KindJobEnd, Job: "j", Time: 3},
		{Kind: KindCheckpoint, Job: "ckpt-1", Machine: None, Dst: None, Part: None, Bytes: 4096, Time: 3},
		{Kind: KindRestore, Job: "restore-1", Machine: None, Dst: None, Part: None, Bytes: 4096, Time: 4},
	})
	tot := b.Totals()
	if tot.TransferDrops != 1 || tot.TransferRetries != 1 {
		t.Fatalf("drops/retries = %d/%d, want 1/1", tot.TransferDrops, tot.TransferRetries)
	}
	if tot.DropStallSeconds != 1.0 {
		t.Fatalf("drop stall = %v, want 1.0", tot.DropStallSeconds)
	}
	if tot.Speculations != 1 {
		t.Fatalf("speculations = %d, want 1", tot.Speculations)
	}
	if b.Checkpoints != 1 || b.Restores != 1 {
		t.Fatalf("checkpoints/restores = %d/%d, want 1/1", b.Checkpoints, b.Restores)
	}
	// Delivered bytes count the successful attempt only.
	if tot.EgressBytes != 100 {
		t.Fatalf("egress bytes = %d, want 100", tot.EgressBytes)
	}
}
