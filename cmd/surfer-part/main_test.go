package main

import (
	"bytes"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	surfer "repro"
)

// TestInvocation builds the tool and runs it: a valid level count prints
// both strategies, and a level count no partitioner can honour is a one-line
// error naming the field and a nonzero exit — `-levels -1` used to die with
// a raw "negative shift amount" panic.
func TestInvocation(t *testing.T) {
	dir := t.TempDir()
	bin := filepath.Join(dir, "surfer-part")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	graphPath := filepath.Join(dir, "g.srfg")
	if err := surfer.SmallWorld(surfer.DefaultSmallWorld(600, 7)).Save(graphPath); err != nil {
		t.Fatal(err)
	}
	run := func(levels string) (stdout, stderr string, err error) {
		cmd := exec.Command(bin, "-graph", graphPath, "-machines", "4", "-levels", levels)
		var o, e bytes.Buffer
		cmd.Stdout, cmd.Stderr = &o, &e
		err = cmd.Run()
		return o.String(), e.String(), err
	}

	stdout, stderr, err := run("3")
	if err != nil {
		t.Fatalf("-levels 3: %v\n%s", err, stderr)
	}
	for _, want := range []string{"bandwidth-aware:", "parmetis:", "partitions:          8"} {
		if !strings.Contains(stdout, want) {
			t.Errorf("-levels 3: output lacks %q:\n%s", want, stdout)
		}
	}

	for _, levels := range []string{"-1", "10", "64"} {
		_, stderr, err := run(levels)
		if err == nil {
			t.Errorf("-levels %s: exit status 0, want failure", levels)
		}
		if !strings.Contains(stderr, "Config.Levels") || strings.Contains(stderr, "panic") || strings.Contains(stderr, "goroutine") {
			t.Errorf("-levels %s: stderr = %q, want one error naming Config.Levels", levels, stderr)
		}
	}
}
