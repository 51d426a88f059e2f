package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/cmd/internal/cli"
	"repro/internal/apps"
	"repro/internal/bench"
	"repro/internal/cluster"
	"repro/internal/fault"
	"repro/internal/graph"
	"repro/internal/trace"
)

// invoke runs the tool in-process and returns its exit status and output.
func invoke(args ...string) (code int, stdout, stderr string) {
	var o, e bytes.Buffer
	code = run(args, &o, &e)
	return code, o.String(), e.String()
}

// capture does what surfer-run -events does, at test size: NR at one
// optimization level on a traced deployment, written as a raw stream — with
// the cluster in its header unless bare (surfer-bench's streams have none).
func capture(t *testing.T, path string, lvl bench.OptLevel, bare bool) {
	t.Helper()
	topo, rec := cluster.NewT2(cluster.T2Config{Machines: 8, Pods: 2, Levels: 1}), trace.NewRecorder()
	d, err := bench.NewDeploymentFor(bench.Scale{Levels: 3, Seed: 42, Workers: 1, Trace: rec}, topo, graph.Social(graph.DefaultSocial(2048, 42)))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.RunApp(apps.NewNR(2), lvl); err != nil {
		t.Fatal(err)
	}
	hdr := trace.TopoOf(topo)
	if bare {
		hdr = nil
	}
	if err := cli.WriteFile(path, func(w io.Writer) error { return trace.WriteEvents(w, hdr, rec.Events()) }); err != nil {
		t.Fatal(err)
	}
}

// TestStreams: one capture analyzes to a blame table (text and JSON), two
// diff, and the autoscaler's -json plan is a fault file surfer-run -fail
// takes: it loads, and validates on the cluster grown by what it joins.
func TestStreams(t *testing.T) {
	dir := t.TempDir()
	o4, o1 := filepath.Join(dir, "o4.events"), filepath.Join(dir, "o1.events")
	capture(t, o4, bench.O4, false)
	capture(t, o1, bench.O1, false)
	for _, tc := range []struct {
		args []string
		want []string
	}{
		{[]string{"-trace", o4}, []string{"blame attribution", "critical path", "link utilization"}},
		{[]string{"-diff", o1, o4}, []string{"trace diff (B - A; positive = B slower)", "blame deltas", "per-stage deltas"}},
		{[]string{"-autoscale", o4}, []string{"autoscale: 2 window(s)", "max level-0 util"}},
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
		// The same report as JSON, with -json after the positional files.
		code, stdout, stderr = invoke(append(tc.args, "-json")...)
		if code != 0 || !json.Valid([]byte(stdout)) {
			t.Errorf("%v -json: exit %d, stderr %q, stdout not JSON:\n%.200s", tc.args, code, stderr, stdout)
		}
	}

	_, plan, _ := invoke("-autoscale", o4, "-json")
	planPath := filepath.Join(dir, "plan.json")
	if err := os.WriteFile(planPath, []byte(plan), 0o644); err != nil {
		t.Fatal(err)
	}
	sched, err := fault.Load(planPath)
	if err != nil {
		t.Fatalf("the plan is not a fault file: %v\n%s", err, plan)
	}
	if _, err := sched.RunInputs(cluster.NewT1(8)); err != nil || len(sched.Kills) != 0 {
		t.Errorf("the plan does not replay: %d kills, %v", len(sched.Kills), err)
	}
}

// TestCompareGate: a report passes against itself and fails, with the
// verdict on stdout and nothing on stderr, against a copy one of whose gated
// metrics grew past the threshold.
func TestCompareGate(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, seconds float64) string {
		r := bench.NewReport()
		r.Entries = []bench.Entry{{Experiment: "table1", Case: "T1", Metrics: map[string]float64{"parmetis_seconds": seconds, "bandwidth_seconds": 0.04}}}
		path := filepath.Join(dir, name)
		if err := bench.WriteReport(path, r); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base, slower, slightly := write("base.json", 0.05), write("slower.json", 0.5), write("slightly.json", 0.051)
	for _, tc := range []struct {
		args []string
		code int
		want string
	}{
		{[]string{"-compare", base, base}, 0, "compare: OK (1 entries, threshold 5.0%)"},
		{[]string{"-compare", base, slightly, "-threshold", "5%"}, 0, "compare: OK"},
		{[]string{"-compare", base, slightly, "-threshold", "1"}, 1, "REGRESSION table1/T1 parmetis_seconds: 0.050000 -> 0.051000 (+2.0%)"},
		{[]string{"-compare", base, slower, "-threshold", "5%"}, 1, "compare: 1 regression(s) past 5.0% threshold"},
	} {
		code, stdout, stderr := invoke(tc.args...)
		if code != tc.code || !strings.Contains(stdout, tc.want) || stderr != "" {
			t.Errorf("%v: exit %d, stdout %q, stderr %q; want exit %d saying %q", tc.args, code, stdout, stderr, tc.code, tc.want)
		}
	}
}

func TestBadInvocations(t *testing.T) {
	dir := t.TempDir()
	good, bare := filepath.Join(dir, "good.events"), filepath.Join(dir, "bare.events")
	capture(t, good, bench.O4, false)
	capture(t, bare, bench.O4, true)
	whole, err := os.ReadFile(good)
	if err != nil {
		t.Fatal(err)
	}
	write := func(name, body string) string {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	missing := filepath.Join(dir, "missing.events")
	empty, truncated := write("empty.events", ""), write("truncated.events", string(whole[:len(whole)/2]))
	chrome := write("chrome.json", `{"displayTimeUnit":"ms","traceEvents":[{"name":"t","ph":"X","pid":1,"ts":5,"dur":1}]}`)
	report := write("report.json", `{"schema":"surfer-bench/v1","entries":[{"experiment":"e","case":"c","metrics":{"m":1}}]}`)
	// Streams the reader accepts but the analyzer cannot fold: a task-end
	// that ran on no machine, and one on a machine far past any cluster,
	// which the report's per-machine table once grew to.
	taskEndOn := func(name, machine string) string {
		return write(name, `{"format":"surfer-trace-events","version":1,"events":[
{"kind":0,"seq":0,"cause":-1,"job":"j","machine":-1,"dst":-1,"part":-1,"time":0},
{"kind":5,"seq":1,"cause":0,"job":"j","machine":`+machine+`,"dst":-1,"part":-1,"time":1,"end":1},
{"kind":1,"seq":2,"cause":1,"job":"j","machine":-1,"dst":-1,"part":-1,"time":1}
]}`)
	}
	machineless, far := taskEndOn("machineless.events", "-1"), taskEndOn("far.events", "8589934592")
	for _, tc := range []struct {
		args []string
		code int
		want string
	}{
		{[]string{"-h"}, 0, "Usage of surfer-analyze"},
		{[]string{"-no-such-flag"}, 2, "Usage of surfer-analyze"},
		{[]string{"-compare", report, report, "-no-such-flag"}, 2, "Usage of surfer-analyze"},
		{nil, 2, "nothing to do"},
		{[]string{"-diff", good}, 2, "-diff wants two positional args"},
		{[]string{"-compare", report}, 2, "-compare wants two positional args"},
		{[]string{"-compare", report, report, "-threshold", "lots"}, 1, `bad -threshold "lots"`},
		{[]string{"-autoscale", bare}, 1, "bare.events: no topology header"},
		{[]string{"-trace", machineless}, 1, "machineless.events: analyze: event 1 is a task-end on machine -1"},
		{[]string{"-trace", far}, 1, "far.events: analyze: event 1 is a task-end on machine 8589934592"},
		// was: exit 0, one mode run and the rest of the command line ignored.
		{[]string{"-trace", good, "-autoscale", good}, 2, "-trace and -autoscale: one mode per call"},
		{[]string{"-compare", "-diff", good, good}, 2, "-diff and -compare: one mode per call"},
		{[]string{"-trace", good, "-threshold", "1"}, 2, "-threshold 1: only -compare reads it"},
		{[]string{"-autoscale", good, "-threshold", "1"}, 2, "-threshold 1: only -compare reads it"},
		{[]string{"-compare", report, report, "-json"}, 2, "-json: -compare does not read it"},
		{[]string{"-trace", good, bare}, 2, "-trace takes its stream as its value, not as positional args: " + bare},
		{[]string{"-autoscale", good, bare}, 2, "-autoscale takes its stream as its value, not as positional args: " + bare},
	} {
		code, stdout, stderr := invoke(tc.args...)
		if code != tc.code || !strings.Contains(stderr, tc.want) || stdout != "" {
			t.Errorf("%v: exit %d, stdout %.200q, stderr %q; want exit %d naming %q", tc.args, code, stdout, stderr, tc.code, tc.want)
		}
	}
	// Every mode that reads a stream or a report refuses every bad file the
	// same way: exit 1, one line, the file named.
	for _, bad := range []string{missing, empty, truncated, chrome} {
		for _, args := range [][]string{
			{"-trace", bad}, {"-autoscale", bad}, {"-diff", good, bad}, {"-diff", bad, good},
			{"-compare", report, bad}, {"-compare", bad, report},
		} {
			code, stdout, stderr := invoke(args...)
			if code != 1 || stdout != "" || strings.Count(stderr, "\n") != 1 || !strings.HasPrefix(stderr, "surfer-analyze: ") || !strings.Contains(stderr, filepath.Base(bad)) {
				t.Errorf("%v: exit %d, stdout %.200q, stderr %q; want exit 1 and one line naming %s", args, code, stdout, stderr, filepath.Base(bad))
			}
		}
	}
}
