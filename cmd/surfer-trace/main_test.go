package main

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/cmd/internal/cli"
	"repro/internal/apps"
	"repro/internal/bench"
	"repro/internal/cluster"
	"repro/internal/graph"
	"repro/internal/jobsvc"
	"repro/internal/trace"
)

// invoke runs the tool in-process and returns its exit status and output.
func invoke(args ...string) (code int, stdout, stderr string) {
	var o, e bytes.Buffer
	code = run(args, &o, &e)
	return code, o.String(), e.String()
}

// capture does what surfer-run -trace -events does, at test size: NR on a
// traced deployment, written in both export formats.
func capture(t *testing.T, dir string) (events, chrome string) {
	t.Helper()
	topo, rec := cluster.NewT3(8, 42), trace.NewRecorder()
	d, err := bench.NewDeploymentFor(bench.Scale{Levels: 2, Seed: 42, Workers: 1, Trace: rec}, topo, graph.Social(graph.DefaultSocial(1024, 42)))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.RunApp(apps.NewNR(2), bench.O4); err != nil {
		t.Fatal(err)
	}
	events, chrome = filepath.Join(dir, "run.events"), filepath.Join(dir, "trace.json")
	if err := cli.WriteFile(events, func(w io.Writer) error { return trace.WriteEvents(w, trace.TopoOf(topo), rec.Events()) }); err != nil {
		t.Fatal(err)
	}
	if err := cli.WriteFile(chrome, func(w io.Writer) error { return trace.WriteChrome(w, rec.Events()) }); err != nil {
		t.Fatal(err)
	}
	return events, chrome
}

// serviceCapture runs two synthetic jobs side by side through the job service
// (two slots) and writes the raw stream, whose events of the two interleave.
func serviceCapture(t *testing.T, dir string) string {
	t.Helper()
	topo, rec := cluster.NewT1(8), trace.NewRecorder()
	plans := jobsvc.SyntheticPlan(42, 8, 2, 2, 8)
	jobs := []jobsvc.Job{
		{Spec: jobsvc.JobSpec{ID: "a", Tenant: "t"}, Plan: plans[:1]},
		{Spec: jobsvc.JobSpec{ID: "b", Tenant: "t"}, Plan: plans[1:]},
	}
	if _, err := jobsvc.Run(jobsvc.Config{Topo: topo, Concurrency: 2, Trace: rec}, jobs); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "jobs.events")
	if err := cli.WriteFile(path, func(w io.Writer) error { return trace.WriteEvents(w, trace.TopoOf(topo), rec.Events()) }); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestBothFormats: the format is sniffed, each export validates and
// summarizes, and -breakdown renders the accounting table of a raw stream,
// with the machines that worked in every stage under it — of each job, when
// two ran at once.
func TestBothFormats(t *testing.T) {
	dir := t.TempDir()
	events, chrome := capture(t, dir)
	jobs := serviceCapture(t, dir)
	for _, tc := range []struct {
		args []string
		want []string
	}{
		{[]string{"-in", events}, []string{events + ": OK (raw event stream v1)", "events:    ", "topology:  T3 (8 machines)", "time span: "}},
		{[]string{"-in", events, "-breakdown"}, []string{"breakdown (job -> stage -> machine)", "job propagation-iter-001", "  stage transfer", "    m0   compute="}},
		{[]string{"-in", jobs, "-breakdown"}, []string{"job a/synth-000", "job b/synth-001", "  stage stage-1"}},
		{[]string{"-in", chrome}, []string{chrome + ": OK\n", " spans, ", "processes: ", "time span: "}},
	} {
		code, stdout, stderr := invoke(tc.args...)
		if code != 0 || stderr != "" {
			t.Fatalf("%v: exit %d: %s", tc.args, code, stderr)
		}
		for _, want := range tc.want {
			if !strings.Contains(stdout, want) {
				t.Errorf("%v: output lacks %q:\n%s", tc.args, want, stdout)
			}
		}
		lines := strings.Split(stdout, "\n")
		for i, l := range lines {
			if strings.HasPrefix(l, "  stage ") && !strings.HasPrefix(lines[i+1], "    m") {
				t.Errorf("%v: no machine row under %q", tc.args, l)
			}
		}
	}
}

// TestBadInputs: a malformed file of either format exits 1 — that is what
// makes the tool a CI gate — with one line naming the file.
func TestBadInputs(t *testing.T) {
	dir := t.TempDir()
	events, chrome := capture(t, dir)
	write := func(name string, data []byte) string {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	cut := func(path string) []byte {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return data[:len(data)/2]
	}
	for _, tc := range []struct {
		args []string
		code int
		want string
	}{
		{[]string{"-h"}, 0, "Usage of surfer-trace"},
		{[]string{"-no-such-flag"}, 2, "Usage of surfer-trace"},
		{nil, 2, "missing -in"},
		// was: exit 0, b never read.
		{[]string{"-in", events, "b"}, 2, "positional args are not read (the file to check is -in's value): b"},
		{[]string{"-in", chrome, "-breakdown"}, 1, "trace.json: -breakdown needs a raw event stream"},
		{[]string{"-in", filepath.Join(dir, "missing.events")}, 1, "missing.events"},
		{[]string{"-in", write("empty.events", nil)}, 1, "empty.events: invalid JSON"},
		{[]string{"-in", write("truncated.events", cut(events))}, 1, "truncated.events: trace: raw trace file is truncated"},
		{[]string{"-in", write("truncated.json", cut(chrome))}, 1, "truncated.json: invalid JSON"},
		{[]string{"-in", write("wrong.json", []byte(`{"kills": [{"machine": 2, "at": 1}]}`))}, 1, "wrong.json: no trace events"},
		{[]string{"-in", write("acausal.events", []byte(`{"format":"surfer-trace-events","version":1,"events":[
{"kind":0,"seq":0,"cause":3,"machine":-1,"dst":-1,"part":-1,"time":0}]}`))}, 1, "acausal.events"},
		{[]string{"-in", write("negative.json", []byte(`{"traceEvents":[{"name":"t","ph":"X","pid":1,"ts":5,"dur":-1}]}`))}, 1, "negative duration"},
	} {
		code, stdout, stderr := invoke(tc.args...)
		if code != tc.code || !strings.Contains(stderr, tc.want) || stdout != "" {
			t.Errorf("%v: exit %d, stdout %.200q, stderr %q; want exit %d naming %q", tc.args, code, stdout, stderr, tc.code, tc.want)
		}
		if tc.code == 1 && (strings.Count(stderr, "\n") != 1 || !strings.HasPrefix(stderr, "surfer-trace: ")) {
			t.Errorf("%v: a failure is one surfer-trace: line, got %q", tc.args, stderr)
		}
	}
}
