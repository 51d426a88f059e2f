// Package cli is the frame every cmd/ tool stands on, so that each is
//
//	func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }
//
// around a run a test can call, with one exit-status convention: 0 for
// success and for -h, 2 for a command line the tool cannot act on (the flag
// package's message and usage, or one "tool: message" line), 1 for any other
// failure, reported as exactly one "tool: message" line on stderr.
package cli

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
)

// Flags returns the flag set of the named tool, reporting to stderr.
func Flags(tool string, stderr io.Writer) *flag.FlagSet {
	fs := flag.NewFlagSet(tool, flag.ContinueOnError)
	fs.SetOutput(stderr)
	return fs
}

// Given reports whether the command line set the named flag.
func Given(fs *flag.FlagSet, name string) (given bool) {
	fs.Visit(func(f *flag.Flag) { given = given || f.Name == name })
	return given
}

type usageError struct{ error }

// Usage marks err as the command line's fault: Run exits 2 on it, not 1.
func Usage(err error) error { return usageError{err} }

// Failed is returned by a body that has already said on stdout what went
// wrong — a gate's verdict is the tool's output, not its failure: Run exits
// 1 and prints nothing more.
var Failed = errors.New("failed")

// Run parses args into fs, calls body with the positional arguments and
// turns the outcome into the exit status. Flags may follow positionals
// ("-compare old.json new.json -threshold 5%"): the flag package stops at
// the first one, so parsing resumes after each.
func Run(fs *flag.FlagSet, args []string, stderr io.Writer, body func(positional []string) error) int {
	var positional []string
	for {
		if err := fs.Parse(args); err != nil {
			if errors.Is(err, flag.ErrHelp) {
				return 0
			}
			return 2
		}
		if args = fs.Args(); len(args) == 0 {
			break
		}
		positional, args = append(positional, args[0]), args[1:]
	}
	err := body(positional)
	if err == nil {
		return 0
	}
	if !errors.Is(err, Failed) {
		fmt.Fprintf(stderr, "%s: %v\n", fs.Name(), err)
	}
	if errors.As(err, new(usageError)) {
		return 2
	}
	return 1
}

// NoArgs is the body of a tool that reads no positional arguments: it refuses
// any, naming them, before body runs.
func NoArgs(body func() error) func(positional []string) error {
	return func(positional []string) error {
		if len(positional) > 0 {
			return Usage(fmt.Errorf("positional args are not read: %s", strings.Join(positional, " ")))
		}
		return body()
	}
}

// WriteFile creates path, hands it to write and closes it, reporting the
// first error.
func WriteFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
