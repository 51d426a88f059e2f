package metrics

import (
	"strconv"
	"strings"
	"testing"

	"repro/internal/trace"
)

// farStream is a job whose second event lies at time at: a job-queued, which
// steps the queue-depth counter, or a transfer from machine 0 to 1 whose
// span ends there.
func farStream(kind trace.EventKind, at float64) []trace.Event {
	far := trace.Event{Kind: kind, Seq: 1, Cause: 0, Job: "j", Machine: trace.None, Dst: trace.None, Part: trace.None, Time: at}
	if kind == trace.KindTransfer {
		far.Machine, far.Dst, far.Bytes, far.Time, far.Start, far.End = 0, 1, 8, 1, 1, at
	}
	return []trace.Event{
		{Kind: trace.KindJobBegin, Seq: 0, Cause: trace.None, Job: "j", Machine: trace.None, Dst: trace.None, Part: trace.None},
		far,
		{Kind: trace.KindJobEnd, Seq: 2, Cause: 1, Job: "j", Machine: trace.None, Dst: trace.None, Part: trace.None, Time: far.Time},
	}
}

// TestWindowBound: an event whose Time or End lies maxWindows windows or more
// past zero is refused with an error naming the window and the bound, by
// FromEvents and the live collector alike, where it once indexed a series at
// a negative window or grew one until the process ran out of memory. The
// last window below the bound is still folded.
func TestWindowBound(t *testing.T) {
	bound := strconv.Itoa(maxWindows) + " windows"
	for _, tc := range []struct {
		kind   trace.EventKind
		at     float64
		window float64
	}{
		{trace.KindJobQueued, 1e300, 1},                    // was: index out of range [-9223372036854775808]
		{trace.KindTransfer, 1e300, 0},                     // was: out of memory at the automatic window
		{trace.KindJobQueued, maxWindows, 1},               // the first window past the bound
		{trace.KindTransfer, maxWindows, 1},                // a span ending there
		{trace.KindJobQueued, 1e-3, 1e-12},                 // a window far shorter than the run
		{trace.KindJobQueued, maxWindows * 0.25, 0.25 / 2}, // twice the bound
	} {
		events := farStream(tc.kind, tc.at)
		window := tc.window
		if window == 0 {
			window = AutoWindow(events)
		}
		want := "a " + strconv.FormatFloat(window, 'g', -1, 64) + " s window puts past the " + bound
		if _, _, err := FromEvents(events, Config{Window: window}); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("FromEvents(kind %d at %g, window %g): %v, want an error naming %q", tc.kind, tc.at, window, err, want)
		}
		c, err := NewCollector(Config{Window: window})
		if err != nil {
			t.Fatal(err)
		}
		for i := range events {
			c.Observe(&events[i])
		}
		if err := c.Err(); err == nil || !strings.Contains(err.Error(), "event 1 ") || !strings.Contains(err.Error(), want) {
			t.Errorf("live kind %d at %g, window %g: Err() = %v, want event 1 refused naming %q", tc.kind, tc.at, window, err, want)
		}
		if set := c.Finish(); set.Windows > 1 {
			t.Errorf("live kind %d at %g: %d windows folded past the refused event", tc.kind, tc.at, set.Windows)
		}
	}

	for _, kind := range []trace.EventKind{trace.KindJobQueued, trace.KindTransfer} {
		set, _, err := FromEvents(farStream(kind, maxWindows-0.5), Config{Window: 1})
		if err != nil || set.Windows != maxWindows {
			t.Errorf("kind %d in the last window: %v, %d windows; want %d", kind, err, set.Windows, maxWindows)
		}
	}
}
