package main

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"

	"repro/cmd/internal/cli"
	"repro/internal/bench"
)

// invoke runs the tool in-process and returns its exit status and output.
func invoke(args ...string) (code int, stdout, stderr string) {
	var o, e bytes.Buffer
	code = tool(&o, &e).Run(args)
	return code, o.String(), e.String()
}

// TestTinySearch is ci.sh's auto-tuner smoke at test size: the eight
// evaluations of the two sweeps (P = 8, 2, 4, 16, 32, then three flag
// combinations) print their trace and a winner, twice the same, and -json
// writes a report surfer-analyze -compare would load.
func TestTinySearch(t *testing.T) {
	report := filepath.Join(t.TempDir(), "tune.json")
	args := []string{"-app", "nr", "-vertices", "2048", "-machines", "8", "-levels", "3", "-seed", "42", "-json", report}
	code, first, stderr := invoke(args...)
	if code != 0 || !strings.HasPrefix(first, "surfer-tune: app=nr evals=8\n") || !strings.Contains(first, "\nbest:") {
		t.Fatalf("exit %d, stderr %q, stdout:\n%s", code, stderr, first)
	}
	if _, again, _ := invoke(args...); again != first {
		t.Errorf("the same seed searched differently:\n%s\nvs\n%s", first, again)
	}
	if r, err := bench.LoadReport(report); err != nil || len(r.Entries) == 0 {
		t.Errorf("-json: %v, %v", r, err)
	}
}

func TestBadInvocations(t *testing.T) {
	for _, tc := range []struct {
		args []string
		code int
		want string
	}{
		{[]string{"-h"}, 0, "Usage of surfer-tune"},
		{[]string{"-no-such-flag"}, 2, "Usage of surfer-tune"},
		// was: exit 0, the argument ignored.
		{[]string{"-vertices", "256", "extra"}, 2, "positional args are not read: extra"},
		{[]string{"-objective", "wall"}, 2, "flag provided but not defined: -objective"},
		{[]string{"-budget", "24"}, 2, "flag provided but not defined: -budget"},
		{[]string{"-app", "xyz", "-vertices", "256"}, 1, `unknown application "xyz"`},
		{[]string{"-machines", "0"}, 1, "surfer-tune: cluster: a topology needs at least one machine, got 0"},
		{[]string{"-levels", "20", "-vertices", "4096"}, 1, "surfer-tune: core: Config.Levels = 22 out of range"},
		{[]string{"-levels-max", "40"}, 1, "surfer-tune: core: Config.Levels = 40 out of range"},
		// A sweep that does not hold -levels is refused, not clamped.
		{[]string{"-levels-min", "5", "-levels-max", "3"}, 2, "surfer-tune: -levels 6, -levels-min 5, -levels-max 3: want 1 <= -levels-min <= -levels <= -levels-max"},
		{[]string{"-levels", "9", "-levels-max", "4"}, 2, "surfer-tune: -levels 9, -levels-min 1, -levels-max 4: want"},
		{[]string{"-levels-min", "-3"}, 2, "surfer-tune: -levels 6, -levels-min -3, -levels-max 0: want"},
		{[]string{"-levels-min", "0"}, 2, "-levels-min 0"},
		{[]string{"-levels-max", "-1"}, 2, "-levels-max -1"},
		{[]string{"-levels", "0"}, 2, "-levels 0, -levels-min 1"},
	} {
		code, stdout, stderr := invoke(tc.args...)
		if code != tc.code || !strings.Contains(stderr, tc.want) || stdout != "" {
			t.Errorf("%v: exit %d, stdout %q, stderr %q; want exit %d naming %q", tc.args, code, stdout, stderr, tc.code, tc.want)
		}
		if tc.code == 1 && strings.Count(stderr, "\n") != 1 {
			t.Errorf("%v: a failure is one line, got %q", tc.args, stderr)
		}
	}
}

// TestContract runs a command line that breaks each rule the tool declares:
// each must exit 2 with that rule's refusal alone.
func TestContract(t *testing.T) { cli.Contract(t, tool) }
