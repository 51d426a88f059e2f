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

// wantStdout is surfer-part's whole stdout for TestInvocation's small-world
// graph on -topology t2 -machines 4 -levels 3, with the temporary directory
// written as DIR.
const wantStdout = `graph: 600 vertices, 7144 edges
cluster: T2(2,1){machines=4 pods=2}
wrote 8 partition files to DIR/parts
wrote partition sketch to DIR/sketch.dot

bandwidth-aware:
  partitions:          8
  inner edge ratio:    85.8%
  cross edges:         1012
  est. elapsed time:   0.006 s
  inner vertex ratio:  16.2%

parmetis:
  partitions:          8
  inner edge ratio:    85.8%
  cross edges:         1012
  est. elapsed time:   0.007 s
  inner vertex ratio:  16.2%
`

// TestInvocation: a valid level count prints exactly wantStdout and writes
// the partitions and the sketch it was asked for; a level count no partitioner
// can honour is a one-line error naming the field — `-levels -1` used to die
// with a raw "negative shift amount" panic.
func TestInvocation(t *testing.T) {
	dir := t.TempDir()
	graphPath := filepath.Join(dir, "g.srfg")
	if err := surfer.SmallWorld(surfer.DefaultSmallWorld(600, 7)).Save(graphPath); err != nil {
		t.Fatal(err)
	}
	parts, dot := filepath.Join(dir, "parts"), filepath.Join(dir, "sketch.dot")
	code, stdout, stderr := invoke("-graph", graphPath, "-machines", "4", "-topology", "t2", "-levels", "3", "-outdir", parts, "-dot", dot)
	if code != 0 {
		t.Fatalf("-levels 3: exit %d: %s", code, stderr)
	}
	if got := strings.ReplaceAll(stdout, dir, "DIR"); got != wantStdout {
		t.Errorf("-levels 3: stdout\n%s\nwant\n%s", got, wantStdout)
	}
	if files, err := os.ReadDir(parts); err != nil || len(files) < 8 {
		t.Errorf("-outdir holds %d files (%v), want the 8 partitions", len(files), err)
	}
	if sketch, err := os.ReadFile(dot); err != nil || !bytes.HasPrefix(sketch, []byte("digraph")) {
		t.Errorf("-dot wrote %.20q (%v), want a DOT graph", sketch, err)
	}

	for _, levels := range []string{"-1", "10", "64"} {
		code, _, stderr := invoke("-graph", graphPath, "-machines", "4", "-levels", levels)
		if code != 1 || !strings.Contains(stderr, "Config.Levels") || strings.Count(stderr, "\n") != 1 {
			t.Errorf("-levels %s: exit %d, stderr %q; want 1 and one error naming Config.Levels", levels, code, stderr)
		}
	}
}

// TestBadInputs: whatever stands where the graph should be — nothing, no
// bytes, half a file, some other format — is one line naming the file, and
// so is a cluster no constructor can build.
func TestBadInputs(t *testing.T) {
	dir := t.TempDir()
	good := filepath.Join(dir, "g.srfg")
	if err := surfer.SmallWorld(surfer.DefaultSmallWorld(600, 7)).Save(good); err != nil {
		t.Fatal(err)
	}
	whole, err := os.ReadFile(good)
	if err != nil {
		t.Fatal(err)
	}
	write := func(name string, data []byte) string {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	for _, tc := range []struct {
		args []string
		code int
		want string
	}{
		{[]string{"-h"}, 0, "Usage of surfer-part"},
		// was: exit 0, the argument ignored.
		{[]string{"-graph", good, "-machines", "8", "extra"}, 2, "positional args are not read: extra"},
		{[]string{"-graph", filepath.Join(dir, "missing.srfg")}, 1, "missing.srfg"},
		{[]string{"-graph", write("empty.srfg", nil)}, 1, "empty.srfg"},
		{[]string{"-graph", write("truncated.srfg", whole[:len(whole)/2])}, 1, "truncated.srfg"},
		{[]string{"-graph", write("wrong.srfg", []byte(`{"format":"surfer-trace-events"}`))}, 1, "wrong.srfg"},
		{[]string{"-graph", good, "-topology", "t9"}, 1, `unknown topology "t9"`},
		{[]string{"-graph", good, "-topology", "t2", "-machines", "8", "-pods", "3"}, 1, "8 machines, 3 pods"},
		// was: T1{machines=8 pods=1}, the flags ignored.
		{[]string{"-graph", good, "-topology", "t1", "-machines", "8", "-pods", "4", "-tree-levels", "2"}, 2, "-pods 4: -topology t1 does not read it (only t2)"},
		{[]string{"-graph", good, "-topology", "t3", "-machines", "8", "-tree-levels", "2"}, 2, "-tree-levels 2: -topology t3 does not read it (only t2)"},
		{[]string{"-graph", good, "-machines", "0"}, 1, "at least one machine"},
	} {
		code, _, stderr := invoke(tc.args...)
		if code != tc.code || !strings.Contains(stderr, tc.want) {
			t.Errorf("%v: exit %d, stderr %q; want exit %d naming %q", tc.args, code, stderr, tc.code, tc.want)
		}
		if tc.code == 1 && (strings.Count(stderr, "\n") != 1 || !strings.HasPrefix(stderr, "surfer-part: ")) {
			t.Errorf("%v: a failure is one surfer-part: line, got %q", tc.args, stderr)
		}
	}
}
