package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/cmd/internal/cli"
	"repro/internal/apps"
	"repro/internal/graph"
	"repro/internal/metrics"
	"repro/internal/trace"
)

// invoke runs the tool in-process and returns its exit status and output.
func invoke(args ...string) (code int, stdout, stderr string) {
	var o, e bytes.Buffer
	code = tool(&o, &e).Run(args)
	return code, o.String(), e.String()
}

// fixture writes the graph surfer-gen would (its -kind social is this call)
// and returns a writer of sibling files.
func fixture(t *testing.T) (graphPath string, write func(name, body string) string) {
	t.Helper()
	dir := t.TempDir()
	graphPath = filepath.Join(dir, "g.srfg")
	if err := graph.Social(graph.DefaultSocial(2048, 42)).Save(graphPath); err != nil {
		t.Fatal(err)
	}
	return graphPath, func(name, body string) string {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
}

// small sizes the cluster and the partition count for a 2048-vertex graph.
func small(graphPath string, more ...string) []string {
	return append([]string{"-graph", graphPath, "-machines", "8", "-levels", "3", "-workers", "1"}, more...)
}

// TestTracedElasticRun is ci.sh's elastic smoke at test size: a fault file
// whose join names a machine past the topology (so the cluster is expanded)
// and a drain, with every capture switched on. The stream must be the one
// the inspectors accept, its header the expanded cluster, and the series
// sampled live byte-identical to the series derived from the capture.
func TestTracedElasticRun(t *testing.T) {
	g, write := fixture(t)
	elastic := write("elastic.json", `{
		"joins":  [{"machine": 8, "at": 0.0005, "nics": 62.5e6}],
		"drains": [{"machine": 3, "at": 0.001, "deadline": 1.0}]
	}`)
	dir := filepath.Dir(g)
	chrome, events, series := filepath.Join(dir, "trace.json"), filepath.Join(dir, "run.events"), filepath.Join(dir, "live.series")
	code, stdout, stderr := invoke(small(g, "-app", "nr", "-topology", "t1", "-fail", elastic,
		"-trace", chrome, "-events", events, "-metrics", series, "-metrics-window", "0.0002")...)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, stderr)
	}
	for _, want := range []string{
		"cluster: T1+1{machines=9 pods=2}; app: NR (3 iteration(s))", "primitive: propagation (O4)",
		"response time:", "elasticity:         1 join(s), 1 drain(s)",
		"metrics:            " + series, "trace:              " + chrome, "events:             " + events,
	} {
		if !strings.Contains(stdout, want) {
			t.Errorf("report lacks %q:\n%s", want, stdout)
		}
	}
	s, err := trace.ReadFile(events)
	if err != nil {
		t.Fatalf("the stream surfer-run wrote is refused: %v", err)
	}
	if s.Topo == nil || s.Topo.Machines != 9 || len(s.Events) == 0 {
		t.Fatalf("stream has topology %+v and %d events, want the expanded 9-machine cluster", s.Topo, len(s.Events))
	}
	if data, err := os.ReadFile(chrome); err != nil || !bytes.HasPrefix(data, []byte(`{"displayTimeUnit"`)) {
		t.Errorf("-trace wrote %.30q (%v), want a Chrome trace_event export", data, err)
	}
	set, _, err := metrics.FromEvents(s.Events, metrics.Config{Window: 0.0002, Topo: s.Topo.Topology()})
	if err != nil {
		t.Fatal(err)
	}
	var derived bytes.Buffer
	if err := metrics.WriteSet(&derived, set); err != nil {
		t.Fatal(err)
	}
	if set.Windows < 5 {
		t.Errorf("the run spans %d windows; the comparison needs several", set.Windows)
	}
	if live, err := os.ReadFile(series); err != nil || !bytes.Equal(live, derived.Bytes()) {
		t.Errorf("live series (%d bytes, %v) differ from the %d bytes derived from the capture", len(live), err, derived.Len())
	}
}

// TestEveryAppAndPrimitive: each name the one app table holds runs under
// propagation, the fixpoint ones bounded by the input alone; MapReduce and
// the kill list take their path.
func TestEveryAppAndPrimitive(t *testing.T) {
	g, _ := fixture(t)
	for _, name := range apps.Names() {
		code, stdout, stderr := invoke(small(g, "-app", strings.ToLower(name), "-opt", "O2")...)
		if code != 0 || !strings.Contains(stdout, "app: "+name+" (") || !strings.Contains(stdout, "primitive: propagation (O2)") {
			t.Errorf("-app %s: exit %d, stdout %q, stderr %q", name, code, stdout, stderr)
		}
		if fixpoint := name == "CC" || name == "SSSP"; fixpoint != strings.Contains(stdout, "(to convergence)") {
			t.Errorf("-app %s: header %q", name, strings.SplitN(stdout, "\n", 2)[0])
		}
	}
	code, stdout, stderr := invoke(small(g, "-app", "tfl", "-primitive", "mapreduce", "-topology", "t2", "-fail", "2@0.001, 5@0.002")...)
	if code != 0 || !strings.Contains(stdout, "primitive: mapreduce") || !strings.Contains(stdout, "cluster: T2(2,1)") {
		t.Errorf("mapreduce with a kill list: exit %d, stdout %q, stderr %q", code, stdout, stderr)
	}
}

// TestBadInvocations: every refusal is one line, and the rows marked "was"
// are the ones the hand-rolled mains got wrong.
func TestBadInvocations(t *testing.T) {
	g, write := fixture(t)
	whole, err := os.ReadFile(g)
	if err != nil {
		t.Fatal(err)
	}
	missing := filepath.Join(filepath.Dir(g), "missing")
	for _, tc := range []struct {
		args []string
		code int
		want string
	}{
		{[]string{"-h"}, 0, "Usage of surfer-run"},
		{[]string{"-no-such-flag"}, 2, "Usage of surfer-run"},
		// was: exit 0, the argument ignored.
		{small(g, "extra"), 2, "positional args are not read: extra"},
		// was: "want vdd, rs, nr, rlg, tc or tfl", while accepting eight.
		{small(g, "-app", "xyz"), 2, `unknown application "xyz" (want one of VDD, RS, NR, RLG, TC, TFL, CC, SSSP)`},
		// was: log.Fatalf from inside a helper, after the deployment was built.
		{small(g, "-opt", "o5"), 2, `unknown optimization level "o5" (want o1..o4)`},
		{small(g, "-primitive", "pregel"), 2, "-primitive pregel: want propagation or mapreduce"},
		{small(g, "-topology", "t9"), 2, `unknown topology "t9"`},
		{small(g, "-topology", "t2", "-pods", "3"), 1, "8 machines, 3 pods"},
		// was: T1 and T3 runs that ignored it.
		{small(g, "-pods", "4"), 2, "-pods 4: -topology t1 does not read it (only t2)"},
		{small(g, "-topology", "t3", "-pods", "2"), 2, "-pods 2: -topology t3 does not read it (only t2)"},
		{small(g, "-levels", "-1"), 1, "Config.Levels"},
		{small(g, "-fail", "2"), 2, `-fail 2: bad entry "2"`},
		{small(g, "-fail", "x@1"), 2, "-fail x@1: bad machine in entry"},
		{small(g, "-fail", "40@1"), 1, "machine 40"},
		// was: a run, slower than fault-free or fault-free itself.
		{small(g, "-fail", "2@NaN"), 1, "kill 0 of machine 2 at time NaN"},
		{small(g, "-fail", "2@Inf"), 1, "kill 0 of machine 2 at time +Inf"},
		// was: "response time: NaN s", a wrong time, and silently 1 s.
		{small(g, "-fail", "2@0.001", "-heartbeat", "Inf"), 1, "Config.HeartbeatInterval = +Inf"},
		{small(g, "-fail", "2@0.001", "-heartbeat", "NaN"), 1, "Config.HeartbeatInterval = NaN"},
		{small(g, "-heartbeat", "-1"), 1, "Config.HeartbeatInterval = -1"},
		// was: a series that grew until the process was killed.
		{small(g, "-metrics", missing+".series", "-metrics-window", "NaN"), 1, "metrics: window must be positive and finite, got NaN"},
		// was: a series grown until the process ran out of memory.
		{small(g, "-metrics", missing+".series", "-metrics-window", "1e-12"), 1, "s window puts past the 1048576 windows a series may hold"},
		{small(g, "-rules", write("slo.json", `{"rules":[]}`)), 2, "-rules needs -metrics"},
		// Refused before the graph is read.
		{[]string{"-graph", missing + ".srfg", "-rules", missing + ".rules"}, 2, "-rules needs -metrics"},
		// was: the missing graph reported, the name not checked until after it.
		{[]string{"-graph", missing + ".srfg", "-primitive", "foo"}, 2, "-primitive foo: want propagation or mapreduce"},
		{[]string{"-graph", missing + ".srfg", "-opt", "o9"}, 2, `-opt o9: unknown optimization level "o9"`},
		{[]string{"-graph", missing + ".srfg", "-app", "foo"}, 2, `-app foo: apps: unknown application "foo"`},
		{[]string{"-graph", missing + ".srfg", "-topology", "t9"}, 2, `-topology t9: cluster: unknown topology "t9"`},
		// was: exit 0, the flag never read.
		{small(g, "-primitive", "mapreduce", "-opt", "o1"), 2, "-opt o1: -primitive mapreduce does not read it (only propagation)"},
		{small(g, "-metrics-window", "0.5"), 2, "-metrics-window 0.5 needs -metrics"},
		// was: exit 0, read as GOMAXPROCS.
		{small(g, "-workers", "-2"), 2, "-workers -2: must not be negative"},

		{[]string{"-graph", missing + ".srfg"}, 1, "missing.srfg"},
		{[]string{"-graph", write("empty.srfg", "")}, 1, "empty.srfg"},
		{[]string{"-graph", write("truncated.srfg", string(whole[:len(whole)/2]))}, 1, "truncated.srfg"},
		{[]string{"-graph", write("wrong.srfg", `{"kills":[]}`)}, 1, "wrong.srfg"},

		{small(g, "-fail", missing+".json"), 1, "missing.json"},
		{small(g, "-fail", write("empty.json", "")), 1, "empty.json"},
		{small(g, "-fail", write("truncated.json", `{"kills": [{"machine": 2, "at"`)), 1, "truncated.json"},
		{small(g, "-fail", write("wrong.json", `{"format":"surfer-trace-events","version":1,"events":[]}`)), 1, "wrong.json"},
		{small(g, "-fail", write("window.json", `{"slowdowns": [{"machine": 1, "from": 2, "until": 1, "factor": 3}]}`)), 1, "window.json"},
		{small(g, "-fail", write("allkilled.json", `{"kills": [{"machine": 0, "at": 1}, {"machine": 0, "at": 2}]}`)), 1, "duplicate kill of machine 0"},

		{small(g, "-metrics", missing+".series", "-rules", missing+".rules"), 1, "missing.rules"},
		{small(g, "-metrics", missing+".series", "-rules", write("empty.rules", "")), 1, "empty.rules"},
		{small(g, "-metrics", missing+".series", "-rules", write("truncated.rules", `{"rules":[{"name":"a","ser`)), 1, "truncated.rules"},
		{small(g, "-metrics", missing+".series", "-rules", write("wrong.rules", `{"kills": [{"machine": 2, "at": 1}]}`)), 1, "wrong.rules"},
		{small(g, "-metrics", missing+".series", "-rules", write("badop.rules", `{"rules":[{"name":"a","series":"s","op":"!="}]}`)), 1, "badop.rules"},
		{small(g, "-events", filepath.Join(missing, "below", "run.events")), 1, "writing events"},
	} {
		code, stdout, stderr := invoke(tc.args...)
		if code != tc.code || !strings.Contains(stderr, tc.want) {
			t.Errorf("%v: exit %d, stderr %q; want exit %d naming %q", tc.args, code, stderr, tc.code, tc.want)
		}
		if tc.code == 1 && (strings.Count(stderr, "\n") != 1 || !strings.HasPrefix(stderr, "surfer-run: ")) {
			t.Errorf("%v: a failure is one surfer-run: line, got %q", tc.args, stderr)
		}
		if tc.code == 2 && stdout != "" {
			t.Errorf("%v: a usage error wrote to stdout: %q", tc.args, stdout)
		}
	}
}

// TestContract runs a command line that breaks each rule the tool declares:
// each must exit 2 with that rule's refusal alone.
func TestContract(t *testing.T) { cli.Contract(t, tool) }
