package trace_test

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/trace"
	"repro/internal/trace/tracetest"
)

// fuzzMachines bounds the machine IDs of a fuzzed stream: the export names
// a process for every ID up to the largest, so one event on machine 1<<40
// asks for more rows than any cluster has.
const fuzzMachines = 1 << 12

// chromeEdges is a stream on the edges of the export: empty names and jobs,
// an unpartitioned transfer, incast on a migration (which Chrome leaves
// out), times that render in exponent form, and escaped names.
func chromeEdges(tb testing.TB, transferStart float64) []byte {
	tb.Helper()
	rec := trace.NewRecorder()
	none := trace.Event{Cause: trace.None, Machine: trace.None, Dst: trace.None, Part: trace.None}
	at := func(kind trace.EventKind, t float64, edit func(*trace.Event)) {
		ev := none
		ev.Kind, ev.Time = kind, t
		if edit != nil {
			edit(&ev)
		}
		rec.Emit(ev)
	}
	at(trace.KindJobBegin, 0, nil)
	at(trace.KindStageBegin, 0, func(ev *trace.Event) { ev.Stage = "s" })
	at(trace.KindTaskEnd, 1e-13, func(ev *trace.Event) { ev.Machine, ev.End = 0, 1e-13 })
	at(trace.KindTaskEnd, 2, func(ev *trace.Event) {
		ev.Name, ev.Machine, ev.Part, ev.Start, ev.End = "<a&b> \"\n", 1, 3, 1, 2
	})
	at(trace.KindTransfer, 3, func(ev *trace.Event) {
		ev.Machine, ev.Dst, ev.Incast, ev.Start, ev.End, ev.Stall = 0, 1, true, transferStart, 3, 1e22
	})
	at(trace.KindPartitionMigrate, 4, func(ev *trace.Event) {
		ev.Machine, ev.Dst, ev.Part, ev.Incast, ev.Bytes, ev.Start, ev.End = 1, 0, 2, true, 7, 3, 4
	})
	at(trace.KindTransferDrop, 5, func(ev *trace.Event) { ev.Machine, ev.Dst, ev.Part, ev.Start, ev.End = 1, 0, 2, 4, 5 })
	at(trace.KindTransferRetry, 5, func(ev *trace.Event) { ev.Machine, ev.Dst = 1, 0 })
	at(trace.KindSpeculate, 5, func(ev *trace.Event) { ev.Name, ev.Machine = "t", 0 })
	at(trace.KindCheckpoint, 6, func(ev *trace.Event) { ev.Bytes = 9 })
	at(trace.KindRestore, 6, func(ev *trace.Event) { ev.Job, ev.Bytes = "j", 9 })
	at(trace.KindMachineJoin, 6, func(ev *trace.Event) { ev.Machine = 2 })
	at(trace.KindFailure, 7, func(ev *trace.Event) { ev.Machine = 1 })
	at(trace.KindStageEnd, 8, func(ev *trace.Event) { ev.Stage = "s" })
	at(trace.KindJobEnd, 8, nil)
	var file bytes.Buffer
	if err := trace.WriteEvents(&file, nil, rec.Events()); err != nil {
		tb.Fatal(err)
	}
	return file.Bytes()
}

// FuzzWriteChrome: on any stream ReadEvents accepts, WriteChrome writes the
// bytes of the encoding/json writer it replaced, and fails exactly when
// that one does.
//
//	go test -run '^$' -fuzz FuzzWriteChrome -fuzztime 60s ./internal/trace
func FuzzWriteChrome(f *testing.F) {
	seeds, err := filepath.Glob(filepath.Join("testdata", "*.json"))
	if err != nil || len(seeds) == 0 {
		f.Fatalf("no seeds: %v", err)
	}
	for _, path := range seeds {
		data, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	var capture bytes.Buffer
	if err := trace.WriteEvents(&capture, nil, tracetest.Capture(300, 4)); err != nil {
		f.Fatal(err)
	}
	f.Add(capture.Bytes())
	f.Add(chromeEdges(f, 2))
	f.Add(chromeEdges(f, 1e303)) // a start that overflows in microseconds
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := trace.ReadEvents(bytes.NewReader(data))
		if err != nil {
			return
		}
		for i := range s.Events {
			if s.Events[i].Machine >= fuzzMachines || s.Events[i].Dst >= fuzzMachines {
				return
			}
		}
		var got, want bytes.Buffer
		gotErr, wantErr := trace.WriteChrome(&got, s.Events), trace.WriteChromeReference(&want, s.Events)
		if (gotErr != nil) != (wantErr != nil) {
			t.Fatalf("WriteChrome error %v, reference error %v", gotErr, wantErr)
		}
		if wantErr == nil && !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("WriteChrome differs from the reference\n got %s\nwant %s", got.Bytes(), want.Bytes())
		}
	})
}
