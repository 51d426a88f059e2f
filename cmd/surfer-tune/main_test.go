package main

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/bench"
)

// invoke runs the tool in-process and returns its exit status and output.
func invoke(args ...string) (code int, stdout, stderr string) {
	var o, e bytes.Buffer
	code = run(args, &o, &e)
	return code, o.String(), e.String()
}

// TestTinySearch is ci.sh's auto-tuner smoke at test size: a four-evaluation
// search on the virtual objective prints its trace and a winner, twice the
// same, and -json writes a report surfer-analyze -compare would load.
func TestTinySearch(t *testing.T) {
	report := filepath.Join(t.TempDir(), "tune.json")
	args := []string{"-app", "nr", "-vertices", "2048", "-machines", "8", "-levels", "3", "-budget", "4", "-seed", "42", "-json", report}
	code, first, stderr := invoke(args...)
	if code != 0 || !strings.Contains(first, "\nbest:") || !strings.Contains(first, "objective=virtual") {
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
		{[]string{"-objective", "speed"}, 1, `surfer-tune: unknown objective "speed" (want virtual or wall)`},
		{[]string{"-app", "xyz", "-vertices", "256"}, 1, `unknown application "xyz"`},
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
