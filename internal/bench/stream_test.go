package bench

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"io"
	"os"
	"reflect"
	"testing"

	"repro/internal/apps"
	"repro/internal/trace"
)

// TestSuiteStreamDigest pins the event stream every experiment "all" selects
// writes at test scale, run in table order on one shared memo as
// surfer-bench -events does: its event count and the SHA-256 of its
// WriteEvents bytes. The stream is the same at 1 and 4 workers. Re-record
// only for an intended behaviour change, with -update.
func TestSuiteStreamDigest(t *testing.T) {
	const path = "testdata/suite_stream.golden"
	var got string
	for _, workers := range []int{1, 4} {
		selected, err := SelectExperiments("all") // a fresh table: its own memo
		if err != nil {
			t.Fatal(err)
		}
		p := Params{Scale: TestScale(), Iterations: 2}
		p.Scale.Workers, p.Scale.Trace = workers, trace.NewRecorder()
		for _, e := range selected {
			if _, err := e.Run(p, io.Discard); err != nil {
				t.Fatalf("%s: %v", e.Name, err)
			}
		}
		var buf bytes.Buffer
		if err := trace.WriteEvents(&buf, nil, p.Scale.Trace.Events()); err != nil {
			t.Fatal(err)
		}
		line := fmt.Sprintf("all at test scale: %d events, %d bytes, sha256 %x\n", p.Scale.Trace.Len(), buf.Len(), sha256.Sum256(buf.Bytes()))
		if got != "" && line != got {
			t.Errorf("workers %d: %s differs from workers 1: %s", workers, line, got)
		}
		got = line
	}
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("suite stream: got %s want %s", got, want)
	}
}

// TestRunAppReplaysFusedRun: RunApp replays the deployment's memoised plan,
// and measures what the application's own RunPropagation measures on a fresh
// runner, for the six applications at every optimization level — the first
// time (planned) and the second (replayed from the memo).
func TestRunAppReplaysFusedRun(t *testing.T) {
	d, err := NewDeployment(TestScale())
	if err != nil {
		t.Fatal(err)
	}
	for _, app := range apps.All() {
		for _, o := range []OptLevel{O1, O2, O3, O4} {
			_, want, err := app.RunPropagation(d.Runner(), d.PG, d.Placement(o), d.Options(o))
			if err != nil {
				t.Fatal(err)
			}
			for pass := range 2 {
				if got, err := d.RunApp(app, o); err != nil {
					t.Fatal(err)
				} else if !reflect.DeepEqual(got, want) {
					t.Errorf("%s %s, pass %d: RunApp %+v, RunPropagation %+v", app.Name(), o, pass, got, want)
				}
			}
		}
	}
	if held := d.sys.Plans(); held != 24 {
		t.Errorf("the memo holds %d plans after 48 runs, want 24", held)
	}
}

// TestSuitePlansOnce: the experiments of one table plan each distinct
// (bisection, placement, application, options) once however often they run
// it, and running the whole table again on the same memo plans nothing.
func TestSuitePlansOnce(t *testing.T) {
	p := Params{Scale: TestScale().withMemo(), Iterations: 2}
	selected, err := SelectExperiments("all")
	if err != nil {
		t.Fatal(err)
	}
	var held [2]int
	for pass := range held {
		for _, e := range selected {
			if _, err := e.Run(p, io.Discard); err != nil {
				t.Fatalf("%s: %v", e.Name, err)
			}
		}
		for _, sys := range p.Scale.shared.bisections {
			held[pass] += sys.Plans()
		}
	}
	// 36 at surfer-bench's defaults (EXPERIMENTS.md).
	if held != [2]int{33, 33} {
		t.Errorf("%d plans after the first pass and %d after the second, want 33 and 33", held[0], held[1])
	}
}
