package main

import (
	"bytes"
	"fmt"
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
	"repro/internal/metrics"
	"repro/internal/trace"
)

// invoke runs the tool in-process and returns its exit status and output.
func invoke(args ...string) (code int, stdout, stderr string) {
	var o, e bytes.Buffer
	code = tool(&o, &e).Run(args)
	return code, o.String(), e.String()
}

const window = "0.0005" // a run at test size spans a few milliseconds

// capture does what surfer-run -events -metrics does, at test size: NR on a
// traced deployment with a live collector attached. It writes the stream to
// path and returns the series file the live collector would have written.
func capture(t *testing.T, path string) (liveSeries []byte) {
	t.Helper()
	topo, rec := cluster.NewT2(cluster.T2Config{Machines: 8, Pods: 2, Levels: 1}), trace.NewRecorder()
	col, err := metrics.NewCollector(metrics.Config{Window: 0.0005, Topo: topo})
	if err != nil {
		t.Fatal(err)
	}
	col.Attach(rec)
	d, err := bench.NewDeploymentFor(bench.Scale{Levels: 3, Seed: 42, Workers: 1, Trace: rec}, topo, graph.Social(graph.DefaultSocial(2048, 42)))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.RunApp(apps.NewNR(2), bench.O1); err != nil {
		t.Fatal(err)
	}
	var live bytes.Buffer
	if err := metrics.WriteSet(&live, col.Finish()); err != nil {
		t.Fatal(err)
	}
	if err := cli.WriteFile(path, func(w io.Writer) error { return trace.WriteEvents(w, trace.TopoOf(topo), rec.Events()) }); err != nil {
		t.Fatal(err)
	}
	return live.Bytes()
}

// TestDerivedEqualsLive is EXPERIMENTS.md's two-path contract through the
// tool: the series derived from a capture at the live window are the live
// collector's, byte for byte, and a series file re-renders to itself.
func TestDerivedEqualsLive(t *testing.T) {
	dir := t.TempDir()
	events, series := filepath.Join(dir, "run.events"), filepath.Join(dir, "live.series")
	live := capture(t, events)
	if err := os.WriteFile(series, live, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, args := range [][]string{{"-trace", events, "-window", window, "-json"}, {"-series", series, "-json"}} {
		code, stdout, stderr := invoke(args...)
		if code != 0 || stdout != string(live) {
			t.Errorf("%v: exit %d, stderr %q; %d bytes, want the %d the live collector wrote", args, code, stderr, len(stdout), len(live))
		}
	}
}

// TestRenderings: every output form, the name filter, the automatic window
// and offline rule evaluation.
func TestRenderings(t *testing.T) {
	dir := t.TempDir()
	events := filepath.Join(dir, "run.events")
	capture(t, events)
	rules := filepath.Join(dir, "slo.json")
	if err := os.WriteFile(rules, []byte(`{"rules": [{"name": "busy", "series": "machine-queue:*", "op": ">", "threshold": 1}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		args    []string
		want    []string
		wantNot string
	}{
		{[]string{"-trace", events}, []string{" series × 32 windows of ", "level-util:0", "machine-queue:7"}, "alerts ("},
		{[]string{"-trace", events, "-window", window, "-csv"}, []string{"window,start,", "\n0,0,"}, ""},
		{[]string{"-trace", events, "-window", window, "-prom"}, []string{"# HELP surfer_series_last", `surfer_series_last{name="level-util:0"}`}, ""},
		{[]string{"-trace", events, "-window", window, "-match", "level-util"}, []string{"level-util:0"}, "machine-queue"},
		{[]string{"-trace", events, "-window", window, "-rules", rules}, []string{"alerts (", "FIRED    busy@machine-queue:"}, ""},
	} {
		code, stdout, stderr := invoke(tc.args...)
		if code != 0 || stderr != "" {
			t.Fatalf("%v: exit %d: %s", tc.args, code, stderr)
		}
		for _, want := range tc.want {
			if !strings.Contains(stdout, want) {
				t.Errorf("%v: output lacks %q:\n%.600s", tc.args, want, stdout)
			}
		}
		if tc.wantNot != "" && strings.Contains(stdout, tc.wantNot) {
			t.Errorf("%v: output holds %q:\n%.600s", tc.args, tc.wantNot, stdout)
		}
	}
}

// seriesFile is a series file of the given window length and count, holding
// one series "s" with the given JSON values, or none when values is "".
func seriesFile(window float64, windows int, values string) string {
	series := ""
	if values != "" {
		series = `{"name":"s","values":` + values + `}`
	}
	return fmt.Sprintf(`{"format":"surfer-metrics-series","version":1,"window":%g,"windows":%d,"series":[%s]}`, window, windows, series)
}

// farStream is a three-event job whose middle event has the given kind,
// machines and times.
func farStream(fields string) string {
	return `{"format":"surfer-trace-events","version":1,"topology":null,"events":[
{"kind":0,"seq":0,"cause":-1,"job":"j","machine":-1,"dst":-1,"part":-1,"time":0},
{"seq":1,"cause":0,"job":"j","part":-1,` + fields + `},
{"kind":1,"seq":2,"cause":1,"job":"j","machine":-1,"dst":-1,"part":-1,"time":1}]}`
}

func TestBadInvocations(t *testing.T) {
	dir := t.TempDir()
	events, series := filepath.Join(dir, "run.events"), filepath.Join(dir, "live.series")
	live := capture(t, events)
	if err := os.WriteFile(series, live, 0o644); err != nil {
		t.Fatal(err)
	}
	whole, err := os.ReadFile(events)
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
	missing, empty := filepath.Join(dir, "missing"), write("empty", "")
	still := write("still.events", `{"format":"surfer-trace-events","version":1,"events":[]}`)
	for _, tc := range []struct {
		args []string
		code int
		want string
	}{
		{[]string{"-h"}, 0, "Usage of surfer-metrics"},
		{[]string{"-no-such-flag"}, 2, "Usage of surfer-metrics"},
		// was: exit 0, the argument ignored.
		{[]string{"-trace", events, "extra"}, 2, "positional args are not read: extra"},
		{nil, 2, "pass -trace run.events (derive) or -series run.series (re-render)"},
		{[]string{"-trace", events, "-series", series}, 2, "alternatives"},
		{[]string{"-series", series, "-rules", missing}, 2, "-rules needs -trace"},
		{[]string{"-trace", still}, 1, "still.events: empty stream; pass -window explicitly"},
		// was: exit 0, the flag never read.
		{[]string{"-series", series, "-window", "0.5"}, 2, "-window 0.5: -series does not read it"},
		{[]string{"-trace", events, "-json", "-width", "20"}, 2, "-width 20: -json does not read it"},
		{[]string{"-series", series, "-csv", "-width", "20"}, 2, "-width 20: -csv does not read it"},
		{[]string{"-trace", events, "-prom", "-width", "20"}, 2, "-width 20: -prom does not read it"},
		// was: exit 0, the JSON alone.
		{[]string{"-trace", events, "-json", "-csv"}, 2, "-json, -csv: alternative outputs; pass one"},
		{[]string{"-series", series, "-csv", "-prom"}, 2, "-csv, -prom: alternative outputs; pass one"},
		// was: silently the automatic window.
		{[]string{"-trace", events, "-window", "NaN"}, 2, "-window NaN: must not be negative"},
		{[]string{"-trace", events, "-window", "-1"}, 2, "-window -1: must not be negative"},
		// was: exit 0, a dashboard without sparklines.
		{[]string{"-trace", events, "-width", "0"}, 2, "-width 0: must be positive"},
		{[]string{"-trace", events, "-width", "-5"}, 2, "-width -5: must be positive"},
		{[]string{"-trace", events, "-window", "Inf"}, 1, "metrics: window must be positive and finite, got +Inf"},
		// was: a series grown until the process ran out of memory.
		{[]string{"-trace", events, "-window", "1e-12"}, 1, "which a 1e-12 s window puts past the 1048576 windows a series may hold"},
		// was: index out of range [-9223372036854775808].
		{[]string{"-trace", write("far.events", farStream(`"kind":14,"machine":-1,"dst":-1,"time":1e300`)), "-window", "1"}, 1, "far.events: metrics: event 1 reaches t = 1e+300 s, which a 1 s window puts past the 1048576 windows"},
		// was: out of memory, at the automatic window.
		{[]string{"-trace", write("farend.events", farStream(`"kind":7,"machine":0,"dst":1,"bytes":8,"time":1,"start":1,"end":1e300`))}, 1, "farend.events: metrics: event 1 reaches t = 1e+300 s, which a 0.03125 s window puts past the 1048576 windows"},

		{[]string{"-trace", missing}, 1, "missing"},
		{[]string{"-trace", empty}, 1, "empty: trace: not a raw event trace"},
		{[]string{"-trace", write("truncated.events", string(whole[:len(whole)/2]))}, 1, "truncated.events: trace: raw trace file is truncated"},
		{[]string{"-trace", write("truncated2.events", string(whole[:len(whole)/2])), "-window", window}, 1, "truncated2.events: trace: raw trace file is truncated"},
		{[]string{"-trace", series}, 1, "live.series: trace: not a raw event trace"},

		{[]string{"-series", missing}, 1, "missing"},
		{[]string{"-series", empty}, 1, "empty: "},
		{[]string{"-series", write("truncated.series", string(live[:len(live)/2]))}, 1, "truncated.series: "},
		{[]string{"-series", events}, 1, "run.events: "},
		// was: two CSV rows, then index out of range.
		{[]string{"-series", write("short.series", seriesFile(0.5, 3, "[1]")), "-csv"}, 1, `short.series: metrics: series "s" has 1 values, want the file's 3 windows`},
		{[]string{"-series", write("long.series", seriesFile(0.5, 1, "[1,2,3]"))}, 1, `long.series: metrics: series "s" has 3 values, want the file's 1 windows`},
		// was: "0 series × -2 windows".
		{[]string{"-series", write("negative.series", seriesFile(0.5, -2, ""))}, 1, "negative.series: metrics: -2 windows, want a count of at least 0"},
		{[]string{"-series", write("nowindow.series", seriesFile(0, 1, "[1]"))}, 1, "nowindow.series: metrics: window 0, want a positive finite number of seconds"},
		{[]string{"-series", write("backwards.series", seriesFile(-0.5, 1, "[1]"))}, 1, "backwards.series: metrics: window -0.5, want a positive finite number of seconds"},

		{[]string{"-trace", events, "-rules", missing}, 1, "missing"},
		{[]string{"-trace", events, "-rules", empty}, 1, "empty: metrics: parsing rules"},
		{[]string{"-trace", events, "-rules", write("truncated.rules", `{"rules": [{"name": "bu`)}, 1, "truncated.rules: metrics: parsing rules"},
		{[]string{"-trace", events, "-rules", series}, 1, "live.series: metrics: parsing rules"},
	} {
		code, stdout, stderr := invoke(tc.args...)
		if code != tc.code || !strings.Contains(stderr, tc.want) || stdout != "" {
			t.Errorf("%v: exit %d, stdout %.100q, stderr %q; want exit %d naming %q", tc.args, code, stdout, stderr, tc.code, tc.want)
		}
		if tc.code == 1 && (strings.Count(stderr, "\n") != 1 || !strings.HasPrefix(stderr, "surfer-metrics: ")) {
			t.Errorf("%v: a failure is one surfer-metrics: line, got %q", tc.args, stderr)
		}
	}
}

// TestContract runs a command line that breaks each rule the tool declares:
// each must exit 2 with that rule's refusal alone.
func TestContract(t *testing.T) { cli.Contract(t, tool) }
