package trace_test

import (
	"bytes"
	"io"
	"reflect"
	"testing"

	"repro/internal/trace"
	"repro/internal/trace/tracetest"
)

// The layer benchmarks share one deterministic capture of a little over
// 100k events on 32 machines, and its file form.
const benchEvents, benchMachines = 100_000, 32

func benchCapture(tb testing.TB) (events []trace.Event, topo *trace.TopoInfo, file []byte) {
	tb.Helper()
	events = tracetest.Capture(benchEvents, benchMachines)
	topo = &trace.TopoInfo{Name: "bench", Machines: benchMachines, Bandwidth: make([][]float64, benchMachines)}
	for i := range topo.Bandwidth {
		topo.Bandwidth[i] = make([]float64, benchMachines)
		for j := range topo.Bandwidth[i] {
			topo.Bandwidth[i][j] = 125e6 / float64(1+(i^j))
		}
	}
	var buf bytes.Buffer
	if err := trace.WriteEvents(&buf, topo, events); err != nil {
		tb.Fatal(err)
	}
	return events, topo, buf.Bytes()
}

func BenchmarkWriteEvents(b *testing.B) {
	events, topo, file := benchCapture(b)
	b.SetBytes(int64(len(file)))
	b.ReportAllocs()
	for b.Loop() {
		if err := trace.WriteEvents(io.Discard, topo, events); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(events)), "ns/event")
}

func BenchmarkReadEvents(b *testing.B) {
	events, _, file := benchCapture(b)
	b.SetBytes(int64(len(file)))
	b.ReportAllocs()
	for b.Loop() {
		if _, err := trace.ReadEvents(bytes.NewReader(file)); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(events)), "ns/event")
}

func BenchmarkRecorderEmit(b *testing.B) {
	events, _, _ := benchCapture(b)
	b.SetBytes(int64(len(events)) * int64(reflect.TypeOf(trace.Event{}).Size()))
	b.ReportAllocs()
	for b.Loop() {
		rec := trace.NewRecorder()
		for i := range events {
			rec.Emit(events[i])
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(events)), "ns/event")
}

func BenchmarkSummarize(b *testing.B) {
	events, _, _ := benchCapture(b)
	b.ReportAllocs()
	for b.Loop() {
		trace.Summarize(events)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(events)), "ns/event")
}

// TestSummarizeAllocBudget pins what summarizing a small capture allocates.
// The ceiling is the measured count: a change that beats it lowers it.
// Twenty runs, because AllocsPerRun floors the mean: the extra allocation an
// occasional run makes does not move it, one more per call does.
func TestSummarizeAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts vary under the race detector")
	}
	const ceiling = 288
	events := tracetest.Capture(5_000, 8)
	allocs := testing.AllocsPerRun(20, func() { trace.Summarize(events) })
	t.Logf("%.0f allocations", allocs)
	if allocs > ceiling {
		t.Errorf("summarizing %d events allocates %.0f times, over its ceiling of %d", len(events), allocs, ceiling)
	}
}

// BenchmarkLabel is the run-resolution pass under Summarize, WriteChrome,
// the analyzer's stage labels and metrics.JobWindows.
func BenchmarkLabel(b *testing.B) {
	events, _, _ := benchCapture(b)
	b.ReportAllocs()
	for b.Loop() {
		trace.Label(events)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(events)), "ns/event")
}

func BenchmarkWriteChrome(b *testing.B) {
	events, _, _ := benchCapture(b)
	b.ReportAllocs()
	for b.Loop() {
		if err := trace.WriteChrome(io.Discard, events); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(events)), "ns/event")
}

// TestReadEventsAllocations: what ReadEvents allocates does not grow with
// the number of events beyond the slice that holds them (the recorder's
// chunks while reading, one exact copy at the end): the strings are
// interned, so a stream twice as long whose names repeat allocates no more
// of them.
func TestReadEventsAllocations(t *testing.T) {
	allocs := func(n int) (float64, int) {
		events := tracetest.Capture(n, 8)
		var file bytes.Buffer
		if err := trace.WriteEvents(&file, nil, events); err != nil {
			t.Fatal(err)
		}
		return testing.AllocsPerRun(3, func() {
			if _, err := trace.ReadEvents(bytes.NewReader(file.Bytes())); err != nil {
				t.Fatal(err)
			}
		}), len(events)
	}
	small, nSmall := allocs(20_000)
	large, nLarge := allocs(80_000)
	// Distinct names grow with the capture (one job name per ~600 events);
	// everything else is chunks. Per-event allocation would add 60 000 here.
	extraChunks := float64(nLarge-nSmall)/4096 + 2
	extraNames := float64(nLarge-nSmall) / 500
	if large-small > extraChunks+extraNames {
		t.Errorf("%d events: %.0f allocations, %d events: %.0f — the difference exceeds %.0f chunks + %.0f names",
			nSmall, small, nLarge, large, extraChunks, extraNames)
	}
	if small > 400 {
		t.Errorf("%d events read with %.0f allocations, want a few hundred at most", nSmall, small)
	}
}

// TestWriterAllocations pins what each writer allocates over one small
// capture, at the measured counts: WriteEvents allocates its block buffer;
// WriteChrome that, the run labels, and each machine's process name and row
// names (transfer, migration, drop, retry), rendered once per machine. An
// allocation per row or per field would add thousands.
func TestWriterAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts vary under the race detector")
	}
	events := tracetest.Capture(2000, 8)
	for _, w := range []struct {
		name    string
		ceiling float64
		write   func() error
	}{
		{"WriteEvents", 1, func() error { return trace.WriteEvents(io.Discard, nil, events) }},
		{"WriteChrome", 85, func() error { return trace.WriteChrome(io.Discard, events) }},
	} {
		allocs := testing.AllocsPerRun(3, func() {
			if err := w.write(); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > w.ceiling {
			t.Errorf("%s: %.0f allocations over %d events, want at most %.0f", w.name, allocs, len(events), w.ceiling)
		}
	}
}
