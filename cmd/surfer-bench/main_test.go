package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/cmd/internal/cli"
	"repro/internal/bench"
	"repro/internal/metrics"
	"repro/internal/trace"
)

// invoke runs the tool in-process and returns its exit status and output.
func invoke(args ...string) (code int, stdout, stderr string) {
	var o, e bytes.Buffer
	code = tool(&o, &e).Run(args)
	return code, o.String(), e.String()
}

// small sizes every experiment for Tier-1.
func small(more ...string) []string {
	return append([]string{"-vertices", "2048", "-machines", "8", "-levels", "3", "-workers", "1"}, more...)
}

// TestAllWithEveryOutput runs what -experiment all selects once, under a
// fault schedule, with every sidecar output on: each selected experiment
// renders and is timed, in table order, and each file is what its reader
// accepts. The event stream is also what surfer-metrics -trace F -prom folds
// into an exposition.
func TestAllWithEveryOutput(t *testing.T) {
	dir := t.TempDir()
	faults := filepath.Join(dir, "faults.json")
	if err := os.WriteFile(faults, []byte(`{"links": [{"src": 0, "dst": 3, "from": 0, "until": 2, "factor": 4}], "slowdowns": [{"machine": 5, "from": 0, "until": 10, "factor": 3}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	report, events, chrome := filepath.Join(dir, "bench.json"), filepath.Join(dir, "all.events"), filepath.Join(dir, "all.trace")
	code, stdout, stderr := invoke(small("-experiment", "all",
		"-faults", faults, "-json", report, "-events", events, "-trace", chrome)...)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, stderr)
	}
	at := 0
	for _, want := range []string{
		"Table 1:", "[table1 took ", "Table 2:", "[table2 took ", "Table 3:", "[table3 took ", "Table 4:", "[table4 took ", "Table 5:", "[table5 took ",
		"Figure 6:", "[fig6 took ", "Figure 7:", "[fig7 took ", "Figure 9:", "[fig9 took ", "Figure 10:", "[fig10 took ", "[fig11 took ",
		"Cascaded propagation", "[cascade took ", "Ablation:", "[ablation took ",
		"wrote " + chrome + " (", "wrote " + events + " (", "wrote " + report + " (29 entries)",
	} {
		i := strings.Index(stdout[at:], want)
		if i < 0 {
			t.Fatalf("output lacks %q after byte %d:\n%s", want, at, stdout)
		}
		at += i
	}
	for _, absent := range []string{"[fig12 took", "[multitenant took", "[scale took"} {
		if strings.Contains(stdout, absent) {
			t.Errorf("-experiment all ran %s", absent)
		}
	}
	if r, err := bench.LoadReport(report); err != nil || len(r.Entries) != 29 {
		t.Errorf("-json: %v, %v", r, err)
	}
	s, err := trace.ReadFile(events)
	if err != nil || s.Topo != nil || len(s.Events) == 0 {
		t.Fatalf("-events: %v (a bench stream spans many clusters, so it has no topology header)", err)
	}
	set, _, err := metrics.FromEvents(s.Events, metrics.Config{Window: metrics.AutoWindow(s.Events)})
	var prom bytes.Buffer
	if err == nil {
		err = metrics.WriteProm(&prom, set)
	}
	if err != nil || !bytes.HasPrefix(prom.Bytes(), []byte("# HELP surfer_series_last")) {
		t.Errorf("exposition of the -events stream: %.40q (%v)", prom.Bytes(), err)
	}
}

// TestExperimentSelection: the rows below "unknown name" are the bug — no
// dispatch block matched "tabel1", so the tool printed nothing, exited 0 and,
// with -json, went on to write an empty report.
func TestExperimentSelection(t *testing.T) {
	dir := t.TempDir()
	report := filepath.Join(dir, "bench.json")
	code, stdout, stderr := invoke(small("-experiment", "Table1", "-json", report)...)
	if code != 0 || !strings.Contains(stdout, "Table 1:") || !strings.Contains(stdout, "(5 entries)") || strings.Contains(stdout, "Table 2:") {
		t.Errorf("-experiment Table1: exit %d, stderr %q, stdout:\n%s", code, stderr, stdout)
	}
	code, stdout, _ = invoke(small("-experiment", "fig12")...)
	if code != 0 || !strings.Contains(stdout, "[fig12 took ") || !strings.Contains(stdout, "Figures 11") {
		t.Errorf("-experiment fig12: exit %d, stdout:\n%s", code, stdout)
	}
	code, stdout, _ = invoke(small("-experiment", "multitenant", "-vertices", "1024", "-levels", "2")...)
	if code != 0 || !strings.Contains(stdout, "[multitenant took ") {
		t.Errorf("-experiment multitenant: exit %d, stdout:\n%s", code, stdout)
	}

	names := strings.Join(bench.ExperimentNames(), "|")
	unwritten := filepath.Join(dir, "unwritten.json")
	code, stdout, stderr = invoke(small("-experiment", "tabel1", "-json", unwritten)...)
	if code != 2 || stdout != "" || !strings.Contains(stderr, `surfer-bench: -experiment tabel1: bench: unknown experiment "tabel1" (want `+names+")") {
		t.Errorf("unknown name: exit %d, stdout %q, stderr %q; want 2 and the registered names", code, stdout, stderr)
	}
	if _, err := os.Stat(unwritten); err == nil {
		t.Error("an unknown experiment still wrote a report")
	}
	if code, _, stderr := invoke("-h"); code != 0 || !strings.Contains(stderr, "Usage of surfer-bench") || !strings.Contains(stderr, names) {
		t.Errorf("-h: exit %d, help lacks the registered names %s:\n%s", code, names, stderr)
	}
}

// TestTable4FromAnyDirectory: Table 4 counts the sources embedded in the
// binary, so it prints the same table wherever the tool runs. It used to
// parse internal/apps relative to the working directory, and -experiment
// all failed at table4 when run from anywhere but the repository root.
func TestTable4FromAnyDirectory(t *testing.T) {
	table := func() string {
		code, stdout, stderr := invoke("-experiment", "table4")
		if code != 0 || !strings.Contains(stdout, "Table 4:") {
			t.Fatalf("exit %d, stderr %q, stdout:\n%s", code, stderr, stdout)
		}
		text, _, _ := strings.Cut(stdout, "[table4 took ")
		return text
	}
	here := table()
	t.Chdir(t.TempDir())
	if there := table(); there != here {
		t.Errorf("table4 depends on the working directory:\n%s\nvs\n%s", here, there)
	}
}

func TestBadInvocations(t *testing.T) {
	dir := t.TempDir()
	write := func(name, body string) string {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	for _, tc := range []struct {
		args []string
		code int
		want string
	}{
		{[]string{"-no-such-flag"}, 2, "Usage of surfer-bench"},
		{[]string{"-prom", filepath.Join(dir, "out.prom")}, 2, "flag provided but not defined: -prom"},
		// was: exit 0, the argument ignored.
		{small("-experiment", "table4", "extra"), 2, "positional args are not read: extra"},
		{small("-experiment", "scale", "-sizes", "1024,lots"), 2, `bad -sizes entry "lots"`},
		{small("-experiment", "table1", "-levels", "-1"), 2, "-levels -1 out of range: want 0 <= levels <= 30"},
		{small("-experiment", "table1", "-levels", "12"), 2, "-vertices 2048 builds 2048 vertices, fewer than the 4096 partitions of -levels 12"},
		{small("-experiment", "table5", "-vertices", "64", "-levels", "6"), 2, "-levels 6 out of range for table5, which sweeps to levels+1: its 128 partitions need at least as many vertices, -vertices 64 builds 64"},
		{small("-experiment", "all", "-vertices", "64", "-levels", "6"), 2, "-levels 6 out of range for table5"},
		// was: exit 0, the stitched generator's rounding unchecked.
		{small("-experiment", "table4", "-vertices", "3", "-levels", "0"), 2, "-vertices 3 builds 0 vertices, fewer than the 1 partitions of -levels 0"},
		{small("-experiment", "parallel"), 2, `unknown experiment "parallel"`},
		{small("-experiment", "table1", "-machines", "0"), 1, "table1: cluster: a topology needs at least one machine, got 0"},
		{small("-experiment", "table1", "-machines", "3"), 1, "table1: cluster: T2 needs machines that divide into pods and 1 or 2 switch levels, got 3 machines, 2 pods"},
		{small("-experiment", "fig9", "-machines", "1"), 1, "fig9: cluster: T2 needs machines that divide into pods and 1 or 2 switch levels, got 1 machines, 2 pods"},
		{small("-experiment", "fig7", "-machines", "0"), 1, "fig7: cluster: a topology needs at least one machine, got 0"},
		{small("-experiment", "cascade", "-iterations", "-1"), 1, "cascade: bench: the cascade study needs at least one iteration, got Iterations = -1"},
		{small("-experiment", "fig11", "-machines", "4"), 1, "fig11: bench: figures 11-12 grow the cluster from 8 machines in steps of 8, got Machines = 4"},
		// was: a failure naming Config.Levels once the scale row reached core.
		{small("-experiment", "scale", "-sizes", "1024,10", "-levels", "6"), 2, "-sizes entry 10 builds 8 vertices, fewer than the 64 partitions of -levels 6"},
		// was: exit 0 and a trajectory row of 0 vertices.
		{small("-experiment", "scale", "-sizes", "3", "-levels", "0", "-vertices", "64"), 2, "-sizes entry 3 builds 0 vertices, fewer than the 1 partitions of -levels 0"},
		// was: exit 0, the flag never read.
		{small("-experiment", "table4", "-sizes", "100,200"), 2, "-sizes 100,200: -experiment table4 does not read it (only scale)"},
		{small("-experiment", "all", "-sizes", "1024"), 2, "-sizes 1024: -experiment all does not read it (only scale)"},
		{small("-experiment", "table4", "-iterations", "7"), 2, "-iterations 7: -experiment table4 does not read it (only cascade)"},
		// was: exit 0, read as GOMAXPROCS.
		{small("-experiment", "table4", "-workers", "-2"), 2, "-workers -2: must not be negative"},
		{small("-experiment", "table4", "-json", filepath.Join(dir, "no", "dir", "r.json")), 1, "writing bench report"},
		{small("-experiment", "table1", "-cpuprofile", filepath.Join(dir, "no", "dir", "cpu.prof")), 1, "cpu profile"},
		{small("-faults", filepath.Join(dir, "missing.json")), 1, "missing.json"},
		{small("-faults", write("empty.json", "")), 1, "empty.json"},
		{small("-faults", write("truncated.json", `{"links": [{"src": 0, "dst"`)), 1, "truncated.json"},
		{small("-faults", write("wrong.json", `{"schema":"surfer-bench/v1","entries":[]}`)), 1, "wrong.json"},
		{small("-faults", write("kill.json", `{"kills": [{"machine": 40, "at": 1}]}`)), 1, "kill.json: fault: kill 0 references machine 40 outside the 8-machine topology"},
		{small("-faults", write("join.json", `{"joins": [{"machine": 8, "at": 0.5}]}`)), 1, "join.json: fault: join 0 references machine 8 outside [0,8)"},
		{small("-faults", write("loop.json", `{"drops": [{"src": 1, "dst": 1, "from": 0, "until": 1}]}`)), 1, "loop.json: fault: link fault 0 on loopback"},
	} {
		code, stdout, stderr := invoke(tc.args...)
		if code != tc.code || !strings.Contains(stderr, tc.want) {
			t.Errorf("%v: exit %d, stderr %q; want exit %d naming %q", tc.args, code, stderr, tc.code, tc.want)
		}
		if tc.code == 1 && (strings.Count(stderr, "\n") != 1 || !strings.HasPrefix(stderr, "surfer-bench: ")) {
			t.Errorf("%v: a failure is one surfer-bench: line, got %q", tc.args, stderr)
		}
		if len(tc.args) > 1 && tc.args[len(tc.args)-2] == "-faults" && stdout != "" {
			t.Errorf("%v: a refused fault file still ran something:\n%.200s", tc.args, stdout)
		}
	}
}

// TestContract runs a command line that breaks each rule the tool declares:
// each must exit 2 with that rule's refusal alone.
func TestContract(t *testing.T) { cli.Contract(t, tool) }
