package analyze_test

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/analyze"
	"repro/internal/cluster"
	"repro/internal/metrics"
	"repro/internal/trace"
	"repro/internal/trace/tracetest"
)

// fuzzMachines bounds the machine IDs of a stream handed to the Chrome
// export, which names a process for every ID up to the largest: one event
// on machine 1<<40 asks for more rows than any cluster has. Analyze refuses
// such a stream itself.
const fuzzMachines = 1 << 12

// fuzzWindow is the fixed window the metrics fold runs at beside the
// automatic one.
const fuzzWindow = 0.25

// FuzzAnalyze: on any stream the reader accepts, every fold of it — the
// analyzer's report and both its renderings, Summarize, WriteChrome, the
// metrics fold at the automatic window and at a fixed one and, when the
// stream carries a topology header, metrics.JobWindows and Autoscale —
// returns or refuses, and never panics.
//
//	go test -run '^$' -fuzz FuzzAnalyze -fuzztime 30s ./internal/analyze
func FuzzAnalyze(f *testing.F) {
	seeds, err := filepath.Glob(filepath.Join("..", "trace", "testdata", "*.json"))
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
	// A job-service-shaped capture with its cluster in the header.
	var capture bytes.Buffer
	if err := trace.WriteEvents(&capture, trace.TopoOf(cluster.NewT1(4)), tracetest.Capture(300, 4)); err != nil {
		f.Fatal(err)
	}
	f.Add(capture.Bytes())
	// A task-end on no machine, which Analyze once indexed its table with,
	// and one on a machine far past any cluster, which it once sized it to.
	for _, machine := range []string{"-1", "8589934592"} {
		f.Add([]byte(`{"format":"surfer-trace-events","version":1,"events":[
{"kind":0,"seq":0,"cause":-1,"job":"j","machine":-1,"dst":-1,"part":-1,"time":0},
{"kind":5,"seq":1,"cause":0,"job":"j","machine":` + machine + `,"dst":-1,"part":-1,"time":1,"end":1},
{"kind":1,"seq":2,"cause":1,"job":"j","machine":-1,"dst":-1,"part":-1,"time":1}]}`))
	}
	// A job-queued and a transfer's end far past any window count, which
	// the metrics fold once indexed a series with and grew one to.
	for _, far := range []string{`"kind":14,"machine":-1,"dst":-1,"time":1e300`, `"kind":7,"machine":0,"dst":1,"bytes":8,"time":1,"start":1,"end":1e300`} {
		f.Add([]byte(`{"format":"surfer-trace-events","version":1,"topology":null,"events":[
{"kind":0,"seq":0,"cause":-1,"job":"j","machine":-1,"dst":-1,"part":-1,"time":0},
{"seq":1,"cause":0,"job":"j","part":-1,` + far + `},
{"kind":1,"seq":2,"cause":1,"job":"j","machine":-1,"dst":-1,"part":-1,"time":1}]}`))
	}
	// A transfer under a header of no machines, whose bisection levels the
	// metrics fold once indexed.
	f.Add([]byte(`{"format":"surfer-trace-events","version":1,"topology":{},"events":[
{"kind":0,"seq":0,"cause":-1,"job":"j","machine":-1,"dst":-1,"part":-1,"time":0},
{"kind":7,"seq":1,"cause":0,"job":"j","machine":0,"dst":0,"part":-1,"time":1,"start":1,"end":1},
{"kind":1,"seq":2,"cause":1,"job":"j","machine":-1,"dst":-1,"part":-1,"time":1}]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := trace.ReadEvents(bytes.NewReader(data))
		if err != nil {
			return
		}
		// Each fold may refuse the stream (JSON has no infinite span, say);
		// only a panic fails the target, so the errors are not checked.
		topo := s.Topo.Topology()
		if rep, err := analyze.Analyze(s.Events, topo); err == nil {
			_ = analyze.WriteText(io.Discard, rep)
			_ = analyze.WriteJSON(io.Discard, rep)
		}
		trace.Summarize(s.Events).WriteText(io.Discard)
		if chromeSized(s.Events) {
			_ = trace.WriteChrome(io.Discard, s.Events)
		}
		if w := metrics.AutoWindow(s.Events); w > 0 {
			_, _, _ = metrics.FromEvents(s.Events, metrics.Config{Window: w, Topo: topo})
		}
		_, _, _ = metrics.FromEvents(s.Events, metrics.Config{Window: fuzzWindow, Topo: topo})
		if topo != nil {
			metrics.JobWindows(s.Events, topo)
			_, _ = analyze.Autoscale(s.Events, topo)
		}
	})
}

// chromeSized reports whether every machine the stream names is below
// fuzzMachines.
func chromeSized(events []trace.Event) bool {
	for i := range events {
		if events[i].Machine >= fuzzMachines || events[i].Dst >= fuzzMachines {
			return false
		}
	}
	return true
}
