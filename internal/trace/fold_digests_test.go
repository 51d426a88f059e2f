package trace_test

import (
	"bytes"
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"repro/internal/analyze"
	"repro/internal/cluster"
	"repro/internal/engine"
	"repro/internal/trace"
	"repro/internal/trace/tracetest"
)

// TestFoldDigestsGolden pins the folds that file a stream by machine and by
// machine pair on a cluster far wider than the stream digests' captures:
// Summarize's table and the analyzer's text and JSON report of a synthetic
// capture on 128 machines, where every bisection level holds many pairs and
// many links tie on busy seconds, and of a run whose jobs send nothing. A
// fold that files rows or links in another order must still render the
// same bytes. The last row diffs the wide report against that of a prefix
// of its capture, which reads every link of both.
func TestFoldDigestsGolden(t *testing.T) {
	const path = "testdata/fold_digests.golden"
	wide := cluster.NewT2(cluster.T2Config{Machines: 128, Pods: 8, Levels: 2})
	var got strings.Builder
	var wideRep *analyze.Report
	for _, c := range []struct {
		name   string
		events []trace.Event
		topo   *cluster.Topology
	}{
		{"wide", tracetest.Capture(20_000, 128), wide},
		{"silent", silentCapture(t), cluster.NewT1(4)},
	} {
		h := sha256.New()
		trace.Summarize(c.events).WriteText(h)
		fmt.Fprintf(&got, "%s breakdown %x\n", c.name, h.Sum(nil))

		rep, err := analyze.Analyze(c.events, c.topo)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		h.Reset()
		if err := analyze.WriteText(h, rep); err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&got, "%s analyze-text %x\n", c.name, h.Sum(nil))
		var js bytes.Buffer
		if err := analyze.WriteJSON(&js, rep); err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&got, "%s analyze-json %d/%d %x\n", c.name, len(rep.Links.Levels), len(rep.Links.Hot), sha256.Sum256(js.Bytes()))
		switch c.name {
		case "wide":
			wideRep = rep
		case "silent":
			// A stream without transfers keeps an empty hot list and no
			// level rows in the report's JSON.
			for _, want := range []string{`"hot": []`, `"levels": null`} {
				if !bytes.Contains(js.Bytes(), []byte(want)) {
					t.Errorf("%s: report JSON lacks %s", c.name, want)
				}
			}
		}
	}

	half, err := analyze.Analyze(tracetest.Capture(10_000, 128), wide)
	if err != nil {
		t.Fatal(err)
	}
	d := analyze.Diff(half, wideRep)
	h := sha256.New()
	if err := analyze.WriteDiffText(h, d); err != nil {
		t.Fatal(err)
	}
	if err := analyze.WriteDiffJSON(h, d); err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(&got, "wide diff %d %x\n", len(d.Links), h.Sum(nil))

	if f := flag.Lookup("update"); f != nil && f.Value.String() == "true" {
		if err := os.WriteFile(path, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	wantLines := strings.Split(strings.TrimSpace(string(want)), "\n")
	gotLines := strings.Split(strings.TrimSpace(got.String()), "\n")
	if len(gotLines) != len(wantLines) {
		t.Fatalf("%d digest rows, golden has %d", len(gotLines), len(wantLines))
	}
	for i, l := range gotLines {
		if l != wantLines[i] {
			t.Errorf("digest differs from golden:\n got %s\nwant %s", l, wantLines[i])
		}
	}
}

// silentCapture runs two stages of four tasks on four machines whose tasks
// send nothing.
func silentCapture(t *testing.T) []trace.Event {
	t.Helper()
	rec := trace.NewRecorder()
	job := &engine.Job{Name: "silent"}
	for s := 0; s < 2; s++ {
		stage := &engine.Stage{Name: fmt.Sprintf("s%d", s)}
		for i := 0; i < 4; i++ {
			stage.Tasks = append(stage.Tasks, &engine.Task{
				Name: fmt.Sprintf("s%d-t%d", s, i), Part: engine.NoPart, Machine: cluster.MachineID(i), Compute: float64(1 + i),
			})
		}
		job.Stages = append(job.Stages, stage)
	}
	if _, err := engine.New(engine.Config{Topo: cluster.NewT1(4), Trace: rec}).Run(job); err != nil {
		t.Fatal(err)
	}
	return rec.Events()
}
