package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	surfer "repro"
)

// invoke runs the tool in-process and returns its exit status and output.
func invoke(args ...string) (code int, stdout, stderr string) {
	var o, e bytes.Buffer
	code = run(args, &o, &e)
	return code, o.String(), e.String()
}

// TestGenerators: every kind writes a graph of the size asked for that the
// library loads back, byte-identical for identical flags.
func TestGenerators(t *testing.T) {
	dir := t.TempDir()
	for _, tc := range []struct {
		kind     string
		args     []string
		vertices int
	}{
		{"social", []string{"-vertices", "1024"}, 1024},
		{"smallworld", []string{"-vertices", "1024", "-rewire", "0.1"}, 1024},
		{"rmat", []string{"-scale", "10", "-edgefactor", "4"}, 1024},
		{"uniform", []string{"-vertices", "1024", "-edgefactor", "4"}, 1024},
	} {
		var files [2][]byte
		for i := range files {
			out := filepath.Join(dir, tc.kind+".srfg")
			code, stdout, stderr := invoke(append([]string{"-kind", tc.kind, "-seed", "7", "-out", out}, tc.args...)...)
			if code != 0 || !strings.HasPrefix(stdout, "wrote "+out+": 1024 vertices, ") {
				t.Fatalf("%s: exit %d, stdout %q, stderr %q", tc.kind, code, stdout, stderr)
			}
			g, err := surfer.LoadGraph(out)
			if err != nil || g.NumVertices() != tc.vertices || g.NumEdges() == 0 {
				t.Fatalf("%s: loaded %v, %v", tc.kind, g, err)
			}
			if files[i], err = os.ReadFile(out); err != nil {
				t.Fatal(err)
			}
		}
		if !bytes.Equal(files[0], files[1]) {
			t.Errorf("%s: two runs with the same flags wrote different files", tc.kind)
		}
	}
}

func TestBadInvocations(t *testing.T) {
	dir := t.TempDir()
	for _, tc := range []struct {
		args []string
		code int
		want string
	}{
		{[]string{"-h"}, 0, "Usage of surfer-gen"},
		{[]string{"-no-such-flag"}, 2, "Usage of surfer-gen"},
		{[]string{"-kind", "torus"}, 1, `surfer-gen: unknown kind "torus"`},
		{[]string{"-vertices", "-5"}, 1, "surfer-gen: -vertices -5: must not be negative"},
		{[]string{"-kind", "rmat", "-scale", "-1"}, 1, "surfer-gen: -scale -1: want 0 <= scale <= 30"},
		{[]string{"-kind", "uniform", "-edgefactor", "-3"}, 1, "surfer-gen: -edgefactor -3: must not be negative"},
		{[]string{"-kind", "smallworld", "-rewire", "2"}, 1, "surfer-gen: -rewire 2: want 0 <= rewire <= 1"},
		{[]string{"-kind", "smallworld", "-rewire", "-0.5"}, 1, "surfer-gen: -rewire -0.5: want 0 <= rewire <= 1"},
		{[]string{"-kind", "smallworld", "-rewire", "NaN"}, 1, "surfer-gen: -rewire NaN: want 0 <= rewire <= 1"},
		{[]string{"-vertices", "64", "-out", filepath.Join(dir, "no", "such", "dir.srfg")}, 1, "dir.srfg"},
	} {
		code, stdout, stderr := invoke(tc.args...)
		if code != tc.code || !strings.Contains(stderr, tc.want) || stdout != "" {
			t.Errorf("%v: exit %d, stdout %.200q, stderr %q; want exit %d naming %q", tc.args, code, stdout, stderr, tc.code, tc.want)
		}
		if tc.code == 1 && strings.Count(stderr, "\n") != 1 {
			t.Errorf("%v: a failure is one line, got %q", tc.args, stderr)
		}
	}
}
