// Command surfer-lint enforces Surfer's determinism contract statically
// (docs/LINTS.md): wall-clock and global-randomness calls, map-iteration
// order leaking into ordered output, concurrency outside the engine's
// worker pool and order-sensitive float folds never reach a replay.
//
// Usage:
//
//	surfer-lint [-json] [-root dir] [packages]
//
// Packages default to ./... relative to the module root (found by walking
// up from the working directory; overridable with -root, which is how the
// known-bad corpus under internal/lint/testdata/src is linted on purpose).
// A pattern that matches no Go files is an error (exit 2): an empty run
// must not masquerade as a clean one.
//
// Every finding not covered by a reasoned //lint:allow pragma fails the
// gate (exit 1) and is printed as file:line:col: SLnnn[error]: message.
// -json emits every finding instead — suppressed ones included, with
// "suppressed": true and the pragma reason — so the suppression inventory
// is auditable. The output is byte-deterministic.
package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"repro/cmd/internal/cli"
	"repro/internal/lint"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the whole tool: 0 clean, 1 unsuppressed findings, 2 usage or load
// errors.
func run(args []string, stdout, stderr io.Writer) int {
	fs := cli.Flags("surfer-lint", stderr)
	jsonOut := fs.Bool("json", false, "emit every finding as JSON (includes suppressed findings)")
	root := fs.String("root", "", "analyze this tree instead of the enclosing module")
	return cli.Run(fs, args, stderr, func(patterns []string) error {
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
		failing := lint.Unsuppressed(findings)

		if *jsonOut {
			out := struct {
				Findings     []lint.Finding `json:"findings"`
				Total        int            `json:"total"`
				Unsuppressed int            `json:"unsuppressed"`
			}{Findings: findings, Total: len(findings), Unsuppressed: len(failing)}
			if out.Findings == nil {
				out.Findings = []lint.Finding{}
			}
			enc := json.NewEncoder(stdout)
			enc.SetIndent("", "  ")
			if err := enc.Encode(out); err != nil {
				return err
			}
			if len(failing) > 0 {
				return cli.Failed
			}
			return nil
		}
		for _, f := range failing {
			fmt.Fprintln(stdout, f)
		}
		if n := len(findings) - len(failing); n > 0 {
			fmt.Fprintf(stderr, "surfer-lint: %d finding(s) suppressed by //lint:allow pragmas (run -json to audit)\n", n)
		}
		if len(failing) > 0 {
			return fmt.Errorf("%d failing finding(s)", len(failing))
		}
		return nil
	})
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
