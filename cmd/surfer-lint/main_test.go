package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestRun drives the whole tool in process: the real tree is clean and
// prints nothing; the known-bad corpus fails with exactly the rows of its
// golden; an empty pattern is an error naming it; and the flags retired
// with the JSON inventory, the baseline and the SARIF machinery are usage
// errors, not silent no-ops.
func TestRun(t *testing.T) {
	repo, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	corpus := filepath.Join(repo, "internal", "lint", "testdata")
	golden, err := os.ReadFile(filepath.Join(corpus, "expected.txt"))
	if err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		name       string
		args       []string
		exit       int
		wantStdout string
		wantStderr string // substring; "" = stderr must be empty
	}{
		{name: "real tree", args: []string{"-root", repo, "./..."}, exit: 0},
		{name: "fixture root", args: []string{"-root", filepath.Join(corpus, "src")}, exit: 1, wantStdout: string(golden)},
		{name: "help", args: []string{"-h"}, exit: 0, wantStderr: "Usage of surfer-lint"},
		{name: "empty pattern", args: []string{"-root", repo, "internal/tpyo/..."}, exit: 2,
			wantStderr: `pattern "internal/tpyo/..." matched no Go files`},
		{name: "-json retired", args: []string{"-json", "-root", repo}, exit: 2,
			wantStderr: "flag provided but not defined: -json"},
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
			if got := stdout.String(); got != tc.wantStdout {
				t.Errorf("stdout:\n%s\nwant:\n%s", got, tc.wantStdout)
			}
			if got := stderr.String(); tc.wantStderr == "" && got != "" || !strings.Contains(got, tc.wantStderr) {
				t.Errorf("stderr = %q, want %q", got, tc.wantStderr)
			}
		})
	}
}
