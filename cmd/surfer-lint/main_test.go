package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// TestRun drives the whole tool in process: the real tree is clean and its
// suppression inventory is empty; the known-bad corpus fails with the check
// IDs of its golden; an empty pattern is an error naming it; and the flags
// retired with the baseline and SARIF machinery are usage errors, not silent
// no-ops.
func TestRun(t *testing.T) {
	repo, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	corpus := filepath.Join(repo, "internal", "lint", "testdata")
	idRE := regexp.MustCompile(`SL\d{3}`)
	golden, err := os.ReadFile(filepath.Join(corpus, "expected.txt"))
	if err != nil {
		t.Fatal(err)
	}
	var goldenIDs []string // one per unsuppressed golden row
	for _, row := range strings.Split(strings.TrimSpace(string(golden)), "\n") {
		if !strings.Contains(row, "[suppressed: ") {
			goldenIDs = append(goldenIDs, idRE.FindString(row))
		}
	}
	sort.Strings(goldenIDs)

	for _, tc := range []struct {
		name       string
		args       []string
		exit       int
		wantStderr string
		check      func(t *testing.T, stdout string)
	}{
		{name: "real tree", args: []string{"-json", "-root", repo, "./..."}, exit: 0,
			check: func(t *testing.T, stdout string) {
				var out struct {
					Findings            []any
					Total, Unsuppressed int
				}
				if err := json.Unmarshal([]byte(stdout), &out); err != nil {
					t.Fatalf("-json output: %v\n%s", err, stdout)
				}
				if out.Total != 0 || out.Unsuppressed != 0 || len(out.Findings) != 0 {
					t.Fatalf("want no findings, suppressed or not:\n%s", stdout)
				}
			}},
		{name: "fixture root", args: []string{"-root", filepath.Join(corpus, "src")}, exit: 1,
			wantStderr: "failing finding(s)",
			check: func(t *testing.T, stdout string) {
				var got []string
				for _, row := range strings.Split(strings.TrimSpace(stdout), "\n") {
					got = append(got, idRE.FindString(row))
				}
				sort.Strings(got)
				if strings.Join(got, " ") != strings.Join(goldenIDs, " ") {
					t.Errorf("finding IDs = %v, want those of expected.txt %v", got, goldenIDs)
				}
			}},
		{name: "help", args: []string{"-h"}, exit: 0, wantStderr: "Usage of surfer-lint"},
		{name: "empty pattern", args: []string{"-root", repo, "internal/tpyo/..."}, exit: 2,
			wantStderr: `pattern "internal/tpyo/..." matched no Go files`},
		{name: "-sarif retired", args: []string{"-sarif", "-root", repo}, exit: 2,
			wantStderr: "flag provided but not defined: -sarif"},
		{name: "-baseline retired", args: []string{"-baseline", "b.json", "-root", repo}, exit: 2,
			wantStderr: "flag provided but not defined: -baseline"},
		{name: "-update-baseline retired", args: []string{"-update-baseline", "-root", repo}, exit: 2,
			wantStderr: "flag provided but not defined: -update-baseline"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if got := run(tc.args, &stdout, &stderr); got != tc.exit {
				t.Fatalf("exit = %d, want %d\nstdout:\n%s\nstderr:\n%s", got, tc.exit, &stdout, &stderr)
			}
			if !strings.Contains(stderr.String(), tc.wantStderr) {
				t.Errorf("stderr lacks %q:\n%s", tc.wantStderr, &stderr)
			}
			if tc.exit == 2 && stdout.Len() > 0 {
				t.Errorf("usage/load error wrote to stdout:\n%s", &stdout)
			}
			if tc.check != nil {
				tc.check(t, stdout.String())
			}
		})
	}
}
