// Command surfer-lint enforces Surfer's determinism contract statically
// (docs/LINTS.md): wall-clock and global-randomness calls, map-iteration
// order leaking into ordered output, concurrency outside the engine's
// worker pool and order-sensitive float folds never reach a replay.
//
// Usage:
//
//	surfer-lint [-root dir] [packages]
//
// Packages default to ./... relative to the module root (found by walking
// up from the working directory; overridable with -root, which is how the
// known-bad corpus under internal/lint/testdata/src is linted on purpose).
// A pattern that matches no Go files is an error (exit 2): an empty run
// must not masquerade as a clean one.
//
// Every finding fails the gate (exit 1) and is printed on stdout as
// file:line:col: SLnnn[error]: message, in a byte-deterministic order; the
// findings are the verdict, so nothing is added on stderr.
package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"

	"repro/cmd/internal/cli"
	"repro/internal/lint"
)

func main() { os.Exit(tool(os.Stdout, os.Stderr).Run(os.Args[1:])) }

// tool is the whole tool: 0 clean, 1 findings, 2 usage or load errors.
func tool(stdout, stderr io.Writer) cli.Tool {
	fs := cli.Flags("surfer-lint", stderr)
	root := fs.String("root", "", "analyze this tree instead of the enclosing module")
	return cli.Tool{Flags: fs, Args: map[string]cli.Arity{"": {N: -1}}, Body: func(patterns []string) error {
		if len(patterns) == 0 {
			patterns = []string{"./..."}
		}
		if *root == "" {
			var err error
			if *root, err = moduleRoot(); err != nil {
				return cli.Usage(err)
			}
		}
		findings, err := lint.Run(lint.DefaultConfig(*root), patterns)
		if err != nil {
			return cli.Usage(err)
		}
		for _, f := range findings {
			fmt.Fprintln(stdout, f)
		}
		if len(findings) > 0 {
			return cli.Failed
		}
		return nil
	}}
}

// moduleRoot walks up from the working directory to the nearest go.mod.
func moduleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no go.mod found above %s", dir)
		}
		dir = parent
	}
}
