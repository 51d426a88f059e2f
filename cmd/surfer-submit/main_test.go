package main

import (
	"bytes"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"repro/cmd/internal/cli"
	"repro/internal/trace"
)

// invoke runs the tool in-process and returns its exit status and output.
func invoke(args ...string) (code int, stdout, stderr string) {
	var o, e bytes.Buffer
	code = tool(&o, &e).Run(args)
	return code, o.String(), e.String()
}

// replayArgs sizes the shared deployment small enough for Tier-1.
func replayArgs(jobs string, more ...string) []string {
	return append([]string{"-jobs", jobs, "-vertices", "512", "-levels", "3", "-workers", "1"}, more...)
}

func TestGenerateThenReplayUnderEachPolicy(t *testing.T) {
	dir := t.TempDir()
	jobs := filepath.Join(dir, "jobs.json")
	code, stdout, stderr := invoke("-gen", "6", "-tenants", "3", "-seed", "7", "-out", jobs)
	if code != 0 || !strings.Contains(stdout, "6 jobs, 3 tenants") {
		t.Fatalf("-gen: exit %d, stdout %q, stderr %q", code, stdout, stderr)
	}
	for _, policy := range []string{"fifo", "fair", "priority"} {
		events := filepath.Join(dir, policy+".events")
		code, stdout, stderr := invoke(replayArgs(jobs, "-policy", policy, "-concurrency", "1", "-events", events)...)
		if code != 0 {
			t.Fatalf("%s: exit %d: %s", policy, code, stderr)
		}
		for _, want := range []string{"policy: " + policy, "job-005", "p50 latency:", "Jain fairness over"} {
			if !strings.Contains(stdout, want) {
				t.Errorf("%s: report lacks %q:\n%s", policy, want, stdout)
			}
		}
		// The stream must pass the validator surfer-trace -in applies.
		f, err := os.Open(events)
		if err != nil {
			t.Fatal(err)
		}
		s, err := trace.ReadEvents(f)
		f.Close()
		if err != nil {
			t.Fatalf("%s: event stream rejected: %v", policy, err)
		}
		if s.Topo == nil || s.Topo.Machines != 8 || len(s.Events) == 0 {
			t.Fatalf("%s: stream has topology %+v and %d events", policy, s.Topo, len(s.Events))
		}
	}
}

func TestFaultFiles(t *testing.T) {
	dir := t.TempDir()
	jobs := filepath.Join(dir, "jobs.json")
	if code, _, stderr := invoke("-gen", "4", "-seed", "7", "-out", jobs); code != 0 {
		t.Fatalf("-gen: exit %d: %s", code, stderr)
	}
	write := func(name, body string) string {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}

	// Machine deaths are not the job service's to handle.
	kill := write("kill.json", `{"kills": [{"machine": 2, "at": 0.001}]}`)
	code, _, stderr := invoke(replayArgs(jobs, "-faults", kill)...)
	if code != 1 || stderr != "surfer-submit: "+kill+": jobsvc: the schedule kills 1 machine(s); the job service handles transient faults only\n" {
		t.Fatalf("kill schedule: exit %d, stderr %q", code, stderr)
	}

	// A join is accepted, and its NIC rate cap is charged: the same join
	// without the cap finishes sooner.
	p99 := func(faults string) string {
		code, stdout, stderr := invoke(replayArgs(jobs, "-faults", faults)...)
		if code != 0 {
			t.Fatalf("%s: exit %d: %s", faults, code, stderr)
		}
		m := regexp.MustCompile(`p99 latency: ([0-9.]+) s`).FindStringSubmatch(stdout)
		if m == nil {
			t.Fatalf("%s: no p99 latency in:\n%s", faults, stdout)
		}
		return m[1]
	}
	plain := p99(write("join.json", `{"joins": [{"machine": 5, "at": 0}]}`))
	capped := p99(write("capped.json", `{"joins": [{"machine": 5, "at": 0, "nics": 1e5}]}`))
	if plain == capped {
		t.Fatalf("p99 latency %s s with and without the NIC cap: the cap is ignored", plain)
	}
}

func TestBadInvocations(t *testing.T) {
	jobs := filepath.Join(t.TempDir(), "jobs.json")
	if code, _, stderr := invoke("-gen", "2", "-seed", "7", "-out", jobs); code != 0 {
		t.Fatalf("-gen: exit %d: %s", code, stderr)
	}
	whole, err := os.ReadFile(jobs)
	if err != nil {
		t.Fatal(err)
	}
	gen := filepath.Join(filepath.Dir(jobs), "gen.json")
	write := func(name, body string) string {
		path := filepath.Join(filepath.Dir(jobs), name)
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
		// was: exit 2, where the other nine tools exit 0.
		{[]string{"-h"}, 0, "Usage of surfer-submit"},
		// was: exit 0, the argument ignored.
		{[]string{"-gen", "2", "-out", gen, "extra"}, 2, "positional args are not read: extra"},
		{nil, 2, "nothing to do"},
		{[]string{"-jobs", "/nonexistent/jobs.json"}, 1, "/nonexistent/jobs.json: no such file"},
		{[]string{"-jobs", write("empty.json", "")}, 1, "empty.json: "},
		{[]string{"-jobs", write("truncated.json", string(whole[:len(whole)/2]))}, 1, "truncated.json: "},
		{[]string{"-jobs", write("wrong.json", `{"kills": [{"machine": 2, "at": 1}]}`)}, 1, "wrong.json: "},
		{replayArgs(jobs, "-faults", "/nonexistent/faults.json"), 1, "/nonexistent/faults.json"},
		{replayArgs(jobs, "-faults", write("nofaults.json", "")), 1, "nofaults.json"},
		{replayArgs(jobs, "-faults", jobs), 1, "jobs.json"},
		{replayArgs(jobs, "-faults", write("past.json", `{"joins": [{"machine": 8, "at": 0}]}`)), 1, "outside"},
		{replayArgs(jobs, "-events", "/nonexistent/dir/run.events"), 1, "/nonexistent/dir/run.events"},
		{[]string{"-jobs", "x", "-policy", "lifo"}, 2, `unknown policy "lifo"`},
		{[]string{"-no-such-flag"}, 2, "Usage of surfer-submit"},
		// 2^levels must be a partition count of the 512-vertex graph.
		{replayArgs(jobs, "-levels", "-1"), 1, "Levels = -1"},
		{replayArgs(jobs, "-levels", "31"), 1, "Levels = 31"},
		{replayArgs(jobs, "-levels", "12"), 1, "Levels = 12"},
		// was: a panic, or a run that printed a value it did not use.
		{replayArgs(jobs, "-machines", "0"), 1, "-machines: cluster: a topology needs at least one machine, got 0"},
		{replayArgs(jobs, "-vertices", "-4"), 2, "-vertices -4: must not be negative"},
		{replayArgs(jobs, "-concurrency", "0"), 2, "-concurrency 0: must be positive"},
		// was: a silent "unlimited".
		{replayArgs(jobs, "-queue-limit", "-1"), 2, "-queue-limit -1: must not be negative"},
		{[]string{"-gen", "2", "-max-priority", "-1", "-out", gen}, 2, "-max-priority -1: must not be negative"},
		{[]string{"-gen", "2", "-tenants", "0", "-out", gen}, 2, "-tenants 0: must be positive"},
		{[]string{"-gen", "2", "-tenants", "-2", "-out", gen}, 2, "-tenants -2: must be positive"},
		// was: exit 0, the flags never read.
		{[]string{"-gen", "5", "-jobs", jobs, "-out", gen}, 2, "-jobs " + jobs + ": -gen does not read it"},
		{[]string{"-gen", "2", "-out", gen, "-policy", "fair", "-events", gen}, 2, "-policy fair, -events " + gen + ": -gen does not read them"},
		{[]string{"-jobs", jobs, "-tenants", "9", "-out", gen}, 2, "-tenants 9, -out " + gen + ": the -jobs replay does not read them"},
		{replayArgs(jobs, "-max-priority", "1"), 2, "-max-priority 1: the -jobs replay does not read it"},
		// was: exit 0, read as GOMAXPROCS.
		{replayArgs(jobs, "-workers", "-2"), 2, "-workers -2: must not be negative"},
	} {
		code, _, stderr := invoke(tc.args...)
		if code != tc.code || !strings.Contains(stderr, tc.want) {
			t.Errorf("%v: exit %d, stderr %q; want exit %d naming %q", tc.args, code, stderr, tc.code, tc.want)
		}
		if tc.code == 1 && (strings.Count(stderr, "\n") != 1 || !strings.HasPrefix(stderr, "surfer-submit: ")) {
			t.Errorf("%v: a failure is one surfer-submit: line, got %q", tc.args, stderr)
		}
	}
}

// TestContract runs a command line that breaks each rule the tool declares:
// each must exit 2 with that rule's refusal alone.
func TestContract(t *testing.T) { cli.Contract(t, tool) }
