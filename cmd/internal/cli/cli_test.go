package cli

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strconv"
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
			code := Tool{Flags: fs, Args: map[string]Arity{"": {N: -1}}, Body: func(positional []string) error {
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
			}}.Run(tc.args)
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
// stands. A mode takes its own count, refused in its own words if it has
// them.
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
		{[]string{"-pair", "a", "b"}, 0, ""},
		{[]string{"-pair", "a"}, 2, "tool: -pair wants two positional args: a\n"},
		{[]string{"a", "-pair", "b", "c"}, 2, "tool: -pair wants two positional args: a b c\n"},
		{[]string{"-in", "f"}, 0, ""},
		{[]string{"-in", "f", "g", "h"}, 2, "tool: -in takes its file as its value: g h\n"},
	} {
		var stderr bytes.Buffer
		fs := Flags("tool", &stderr)
		fs.Int("n", 0, "a number")
		fs.Bool("pair", false, "a mode of two args")
		fs.String("in", "", "a mode of none")
		ran := false
		code := Tool{Flags: fs, Args: map[string]Arity{"pair": {N: 2, Say: "-pair wants two positional args: %s"}, "in": {Say: "-in takes its file as its value: %s"}},
			Body: func([]string) error { ran = true; return nil }}.Run(tc.args)
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

// TestUnread: the set flags a rule leaves unread are refused with exit 2,
// named with their values — together when one rule without In, or rules
// worded alike, leave them unread — and so are two modes of one group and a
// value a check refuses; a flag left at its default, given "" or false, or
// set and read, is not named.
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
		{[]string{"-workers", "-1"}, 2, "tool: -workers -1: must not be negative\n"},
		{[]string{"-wide", "-a", "2", "-b", "x"}, 0, ""},
		{[]string{"-c", "2"}, 2, "tool: -c 2: -kind x does not read it (only y, z)\n"},
		{[]string{"-kind", "y", "-c", "2"}, 0, ""},
		{[]string{"-kind", "all", "-c", "2"}, 0, ""},
		{[]string{"-d", "v"}, 2, "tool: -d v: only -mode reads it\n"},
		{[]string{"-d", "", "-b", ""}, 0, ""},
		{[]string{"-mode", "-d", "v", "-kept", "3", "-e"}, 2, "tool: -kept 3, -e true: -mode does not read them\n"},
		{[]string{"-mode", "-kept", "0", "-e=false"}, 2, "tool: -kept 0: -mode does not read it\n"},
		{[]string{"-mode", "-other"}, 2, "tool: -mode and -other: one mode per call\n"},
		{[]string{"-mode", "-other=false"}, 0, ""},
		{[]string{"-kind", "w"}, 2, "tool: -kind w: want x, y, z or all\n"},
		{[]string{"-size", "1"}, 2, "tool: -size 1: out of range [2, 4]\n"},
		{[]string{"-size", "NaN"}, 2, "tool: -size NaN: out of range [2, 4]\n"},
		{[]string{"-size", "3", "-count", "0"}, 2, "tool: -count 0: must be positive\n"},
		{[]string{"-parsed", "x"}, 2, `tool: -parsed x: strconv.Atoi: parsing "x": invalid syntax` + "\n"},
	} {
		var stderr bytes.Buffer
		code := contract(io.Discard, &stderr).Run(tc.args)
		if code != tc.code || stderr.String() != tc.stderr {
			t.Errorf("%q: exit %d, stderr %q; want exit %d, stderr %q", tc.args, code, stderr.String(), tc.code, tc.stderr)
		}
	}
}

// contract declares rules of every kind.
func contract(_, stderr io.Writer) Tool {
	fs := Flags("tool", stderr)
	fs.Int("a", 0, "")
	fs.String("b", "", "")
	fs.Int("c", 0, "")
	fs.String("d", "", "")
	fs.Bool("e", false, "")
	fs.Int("kept", 0, "")
	fs.String("kind", "x", "")
	fs.Bool("wide", false, "")
	fs.Bool("mode", false, "")
	fs.Bool("other", false, "")
	fs.Int("workers", 0, "")
	fs.Float64("size", 2, "")
	fs.Int("count", 1, "")
	fs.String("parsed", "0", "")
	return Tool{Flags: fs,
		Values: map[string][]string{"kind": {"x", "y", "z", "all"}},
		Check: map[string]func(string) error{"workers": NonNegative, "size": Within(2, 4), "count": Positive,
			"parsed": Parse(strconv.Atoi)},
		Selects: map[string]func(string) []string{"kind": func(v string) []string {
			if v == "all" {
				return []string{"y", "z"}
			}
			return []string{v}
		}},
		Reads: []Cond{{Flags: []string{"a", "b"}, By: "wide", Say: "%s: mode m does not read it"},
			Only("c", "kind", "y", "z"), Only("d", "mode"), Unless("mode", "kept", "e")},
		Modes: []Modes{{Flags: []string{"mode", "other"}, Sep: " and ", Say: "%s: one mode per call"}},
		Body:  func([]string) error { return nil },
	}
}

type errorfs []string

func (e *errorfs) Errorf(format string, a ...any) { *e = append(*e, fmt.Sprintf(format, a...)) }

// TestContract: the command lines derived from a declaration are refused as
// it says, and a rule no value of its decider breaks is a declaration's
// fault.
func TestContract(t *testing.T) {
	var errs errorfs
	if Contract(&errs, contract); len(errs) > 0 {
		t.Errorf("the toy's contract: %q", errs)
	}
	Contract(&errs, func(stdout, stderr io.Writer) Tool {
		tool := contract(stdout, stderr)
		tool.Reads = []Cond{Only("c", "kind", "x", "y", "z")}
		return tool
	})
	if want := []string{"-c: every value of -kind reads it"}; !slices.Equal(errs, want) {
		t.Errorf("a rule every -kind keeps: %q, want %q", errs, want)
	}
}
