package cli

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestRun pins the one exit-status convention of the ten tools: -h is
// success, a command line the flag package or the tool refuses is 2, a
// gate's verdict is a silent 1, anything else is 1 with exactly one
// "tool: message" line — and flags are honoured wherever they stand.
func TestRun(t *testing.T) {
	boom := errors.New("boom")
	for _, tc := range []struct {
		name       string
		args       []string
		body       error
		code       int
		stderr     string // substring; "" = stderr must be empty
		positional string
		noBody     bool // the command line is refused (or is -h) before the body runs
	}{
		{name: "success", args: []string{"-n", "3", "a", "b"}, code: 0, positional: "a b"},
		{name: "help", args: []string{"-h"}, code: 0, stderr: "Usage of tool:", noBody: true},
		{name: "unknown flag", args: []string{"-nope"}, code: 2, stderr: "flag provided but not defined: -nope", noBody: true},
		{name: "bad value", args: []string{"-n", "x"}, code: 2, stderr: "invalid value", noBody: true},
		{name: "flags after positionals", args: []string{"a", "-n", "3", "b", "-v"}, code: 0, positional: "a b"},
		{name: "help after a positional", args: []string{"a", "-h"}, code: 0, stderr: "Usage of tool:", noBody: true},
		{name: "failure", body: boom, code: 1, stderr: "tool: boom\n"},
		{name: "usage error", body: Usage(boom), code: 2, stderr: "tool: boom\n"},
		{name: "verdict", body: Failed, code: 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var stderr bytes.Buffer
			fs := Flags("tool", &stderr)
			n := fs.Int("n", 0, "a number")
			v := fs.Bool("v", false, "a switch")
			ran := false
			code := Run(fs, tc.args, &stderr, func(positional []string) error {
				ran = true
				if got := strings.Join(positional, " "); got != tc.positional {
					t.Errorf("positional = %q, want %q", got, tc.positional)
				}
				if tc.positional != "" && *n != 3 {
					t.Errorf("-n = %d, want 3", *n)
				}
				if tc.name == "flags after positionals" && !*v {
					t.Error("-v after the last positional was not parsed")
				}
				return tc.body
			})
			if code != tc.code {
				t.Errorf("exit %d, want %d", code, tc.code)
			}
			if ran == tc.noBody {
				t.Errorf("body ran = %v, want %v", ran, !tc.noBody)
			}
			if got := stderr.String(); tc.stderr == "" && got != "" || !strings.Contains(got, tc.stderr) {
				t.Errorf("stderr = %q, want %q", got, tc.stderr)
			}
			if tc.body != nil && tc.body != Failed && strings.Count(stderr.String(), "\n") != 1 {
				t.Errorf("a failure is one line, got %q", stderr.String())
			}
		})
	}
}

// TestNoArgs: a tool that reads no positional argument refuses any with exit
// 2, naming it, and never runs its body; with none, the body's outcome
// stands.
func TestNoArgs(t *testing.T) {
	for _, tc := range []struct {
		args   []string
		code   int
		stderr string
	}{
		{nil, 0, ""},
		{[]string{"-n", "3"}, 0, ""},
		{[]string{"-n", "3", "extra"}, 2, "tool: positional args are not read: extra\n"},
		{[]string{"a", "-n", "3", "b"}, 2, "tool: positional args are not read: a b\n"},
	} {
		var stderr bytes.Buffer
		fs := Flags("tool", &stderr)
		fs.Int("n", 0, "a number")
		ran := false
		code := Run(fs, tc.args, &stderr, NoArgs(func() error { ran = true; return nil }))
		if code != tc.code || stderr.String() != tc.stderr || ran != (tc.code == 0) {
			t.Errorf("%q: exit %d, stderr %q, body ran %v; want exit %d, stderr %q", tc.args, code, stderr.String(), ran, tc.code, tc.stderr)
		}
	}
}

func TestWriteFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "out.txt")
	if err := WriteFile(path, func(w io.Writer) error { _, err := io.WriteString(w, "hello\n"); return err }); err != nil {
		t.Fatal(err)
	}
	if got, err := os.ReadFile(path); err != nil || string(got) != "hello\n" {
		t.Fatalf("file holds %q (%v)", got, err)
	}
	boom := errors.New("boom")
	if err := WriteFile(path, func(io.Writer) error { return boom }); err != boom {
		t.Errorf("the writer's error came back as %v", err)
	}
	if err := WriteFile(filepath.Join(path, "below-a-file"), func(io.Writer) error { return nil }); err == nil {
		t.Error("creating a file below a file succeeded")
	}
}

// TestUnread: the flags a mode would not read are refused with exit 2,
// named with their values in the order given; a flag left at its default,
// or set but read, is not named.
func TestUnread(t *testing.T) {
	for _, tc := range []struct {
		args   []string
		code   int
		stderr string
	}{
		{nil, 0, ""},
		{[]string{"-kept", "1"}, 0, ""},
		{[]string{"-b", "x"}, 2, "tool: -b x: mode m does not read it\n"},
		{[]string{"-b", "x", "-a", "2", "-kept", "1"}, 2, "tool: -a 2, -b x: mode m does not read them\n"},
		{[]string{"-workers", "-1"}, 2, "tool: -workers -1: must not be negative (0 = GOMAXPROCS, 1 = serial)\n"},
	} {
		var stderr bytes.Buffer
		fs := Flags("tool", &stderr)
		fs.Int("a", 0, "")
		fs.String("b", "", "")
		fs.Int("kept", 0, "")
		workers := fs.Int("workers", 0, "")
		code := Run(fs, tc.args, &stderr, NoArgs(func() error {
			if err := Workers(*workers); err != nil {
				return err
			}
			return Unread(fs, "mode m", "a", "b")
		}))
		if code != tc.code || stderr.String() != tc.stderr {
			t.Errorf("%q: exit %d, stderr %q; want exit %d, stderr %q", tc.args, code, stderr.String(), tc.code, tc.stderr)
		}
	}
}
