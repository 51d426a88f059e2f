// Package lint is surfer-lint: a static analyzer that proves the
// determinism contract (DESIGN.md "Parallel execution & the determinism
// contract") at review time instead of replay time. The engine's guarantee —
// results and traces bit-identical across worker counts — holds only if
// every source of nondeterminism is kept out of the deterministic packages:
// wall clock, unseeded randomness, map iteration order feeding ordered
// output, ad-hoc concurrency outside the sanctioned worker pool, and
// order-sensitive float folds.
//
// The analyzer is stdlib-only: it type-checks every analyzed package with
// go/types, resolving stdlib imports through go/importer's source importer
// and module-internal imports by recursively loading them from the
// configured root, so "is this a map", "is this a float" and "which package
// does this qualifier name" are answered by the type checker.
//
// Each check has a stable ID (see docs/LINTS.md, which also records what
// each one has caught on this tree and why SL000, SL004, SL005, SL007 and
// SL008 were retired) and every finding fails the build. There is no
// suppression comment: code that may legitimately read the clock or start
// goroutines is placed by the tier table of Config, the one escape hatch.
package lint

import (
	"fmt"
	"go/token"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
)

// Check IDs. Stable: tests and docs refer to them by name, and a retired ID
// (SL000, SL004, SL005, SL007, SL008) is never reused.
const (
	// IDEntropy is SL001: direct wall-clock / environment /
	// global-randomness calls in simulation packages.
	IDEntropy = "SL001"
	// IDMapOrder is SL002: range over a map emitting into ordered output
	// without a subsequent sort — the PR 1 nrMR.Map bug class.
	IDMapOrder = "SL002"
	// IDConcurrency is SL003: go statements or multi-case selects outside
	// the sanctioned worker pool.
	IDConcurrency = "SL003"
	// IDFloatAccum is SL006: order-sensitive float accumulation — a
	// float compound assignment inside a map range, or into a variable
	// captured across Pool.ForEach worker goroutines. Float addition is
	// not associative, so the fold's bits depend on visit order.
	IDFloatAccum = "SL006"
)

// CheckIDs lists every check ID in order.
func CheckIDs() []string { return []string{IDEntropy, IDMapOrder, IDConcurrency, IDFloatAccum} }

// Finding is one analyzer report. File is slash-separated and relative to
// the configured root.
type Finding struct {
	ID      string
	File    string
	Line    int
	Col     int
	Message string
}

// String renders the finding the way a compiler would. There is one
// severity: every finding fails the build.
func (f Finding) String() string {
	return fmt.Sprintf("%s:%d:%d: %s[error]: %s", f.File, f.Line, f.Col, f.ID, f.Message)
}

// Config scopes the analysis.
type Config struct {
	// Root is the module root; findings are reported relative to it.
	Root string
	// Module is the import-path prefix of packages under Root ("repro").
	// Imports carrying it resolve to directories under Root; everything
	// else resolves through go/importer.
	Module string
	// DeterministicDirs are slash-relative directory prefixes under Root
	// holding the deterministic packages: the full contract (SL001, SL002,
	// SL003, SL006) applies.
	DeterministicDirs []string
	// SupportingDirs are prefixes for packages that feed the deterministic
	// core seed-derived state (graphs, partitions, replicas, benchmarks):
	// their outputs must be reproducible from seeds, but they run outside
	// the event loop, so only SL001 and SL006 apply.
	SupportingDirs []string
	// SanctionedConcurrency lists slash-relative files allowed to spawn
	// goroutines and select: the worker pool.
	SanctionedConcurrency []string
}

// DefaultConfig returns the repository's real scoping: the deterministic
// packages from DESIGN.md (including the post-PR-4 additions
// internal/jobsvc and internal/analyze — both are pure functions of their
// seeded inputs whose outputs must be byte-identical), the seed-driven
// supporting packages, and the worker pool (internal/pool) as the one
// sanctioned concurrency site. cmd/ and examples/ are process-boundary drivers (flag
// parsing, wall-clock progress output) and are not scanned.
func DefaultConfig(root string) Config {
	return Config{
		Root:   root,
		Module: "repro",
		DeterministicDirs: []string{
			"internal/engine",
			"internal/pool",
			"internal/propagation",
			"internal/mapreduce",
			"internal/exchange",
			"internal/jobsvc",
			"internal/cluster",
			"internal/apps",
			"internal/fault",
			"internal/trace",
			"internal/analyze",
			"internal/metrics",
		},
		SupportingDirs: []string{
			"internal/graph",
			"internal/partition",
			"internal/storage",
			"internal/core",
			"internal/bench",
			"internal/lint",
			".", // the root package (surfer.go, workloads.go)
		},
		SanctionedConcurrency: []string{"internal/pool/pool.go"},
	}
}

// tier is how much of the contract applies to a file.
type tier int

const (
	tierExempt tier = iota
	tierSupporting
	tierDeterministic
)

func (c *Config) tierOf(relDir string) tier {
	for _, d := range c.DeterministicDirs {
		if relDir == d || strings.HasPrefix(relDir, d+"/") {
			return tierDeterministic
		}
	}
	for _, d := range c.SupportingDirs {
		if relDir == d || (d != "." && strings.HasPrefix(relDir, d+"/")) {
			return tierSupporting
		}
	}
	return tierExempt
}

// Run analyzes the packages matched by patterns under cfg.Root and returns
// all findings, sorted by position and deduplicated. Patterns are
// slash-relative to Root: "./..." (or "...") walks everything, "dir/..."
// walks a subtree, a plain directory analyzes that one package. A pattern
// that matches no Go files at all is an error — an empty run must not
// masquerade as a clean one.
func Run(cfg Config, patterns []string) ([]Finding, error) {
	perPattern, err := expandPatterns(cfg.Root, patterns)
	if err != nil {
		return nil, err
	}
	prog := newProgram(&cfg)

	// Load every matched, non-exempt package; what it imports from the
	// module loads transitively through the importer.
	var analyzed []*pkgInfo
	seen := map[string]bool{}
	for _, pp := range perPattern {
		matchedFiles := 0
		for _, dir := range pp.dirs {
			names, err := goSources(dir)
			if os.IsNotExist(err) {
				continue // missing directory: zero matches for this pattern
			}
			if err != nil {
				return nil, err
			}
			matchedFiles += len(names)
			rel := relSlash(cfg.Root, dir)
			if cfg.tierOf(rel) == tierExempt || len(names) == 0 || seen[rel] {
				continue
			}
			seen[rel] = true
			pi, err := prog.loadRel(rel)
			if err != nil {
				return nil, err
			}
			analyzed = append(analyzed, pi)
		}
		if matchedFiles == 0 {
			return nil, fmt.Errorf("surfer-lint: pattern %q matched no Go files", pp.pattern)
		}
	}

	var findings []Finding
	for _, pi := range analyzed {
		for i, file := range pi.files {
			relFile := pi.relFiles[i]
			findings = append(findings, analyzeFile(&fileCtx{
				fset:       prog.fset,
				file:       file,
				info:       pi.info,
				relFile:    relFile,
				tier:       pi.tier,
				sanctioned: slices.Contains(cfg.SanctionedConcurrency, relFile),
			})...)
		}
	}

	sort.Slice(findings, func(i, j int) bool {
		a, b := findings[i], findings[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		if a.ID != b.ID {
			return a.ID < b.ID
		}
		return a.Message < b.Message
	})
	return Dedup(findings), nil
}

// Dedup removes exact duplicates — same check, position and message —
// keeping the first occurrence and the input order. Overlapping passes
// (e.g. nested map ranges both claiming one accumulation) may report the
// same defect once each; the stream the CLI and goldens see carries it
// once.
func Dedup(findings []Finding) []Finding {
	type key struct {
		id, file, msg string
		line, col     int
	}
	seen := make(map[key]bool, len(findings))
	out := findings[:0:0]
	for _, f := range findings {
		k := key{f.ID, f.File, f.Message, f.Line, f.Col}
		if seen[k] {
			continue
		}
		seen[k] = true
		out = append(out, f)
	}
	return out
}

// analyzeFile runs the per-file checks appropriate to the tier.
func analyzeFile(ctx *fileCtx) []Finding {
	var findings []Finding
	ctx.add = func(pos token.Pos, id, format string, args ...any) {
		p := ctx.fset.Position(pos)
		findings = append(findings, Finding{
			ID:      id,
			File:    ctx.relFile,
			Line:    p.Line,
			Col:     p.Column,
			Message: fmt.Sprintf(format, args...),
		})
	}
	checkEntropy(ctx)
	checkFloatAccum(ctx)
	if ctx.tier == tierDeterministic {
		checkMapRangeEmission(ctx)
		if !ctx.sanctioned {
			checkConcurrency(ctx)
		}
	}
	return findings
}

// patternDirs is one CLI pattern with the directories it matched.
type patternDirs struct {
	pattern string
	dirs    []string
}

// expandPatterns resolves CLI package patterns to directories containing Go
// sources, per pattern. testdata and hidden directories are never walked.
func expandPatterns(root string, patterns []string) ([]patternDirs, error) {
	var out []patternDirs
	for _, pat := range patterns {
		orig := pat
		pat = strings.TrimPrefix(filepath.ToSlash(pat), "./")
		seen := map[string]bool{}
		var dirs []string
		addTree := func(base string) error {
			return walkGoDirs(base, func(path string) {
				if !seen[path] {
					seen[path] = true
					dirs = append(dirs, path)
				}
			})
		}
		switch {
		case pat == "..." || pat == "":
			if err := addTree(root); err != nil {
				return nil, err
			}
		case strings.HasSuffix(pat, "/..."):
			if err := addTree(filepath.Join(root, strings.TrimSuffix(pat, "/..."))); err != nil {
				return nil, err
			}
		default:
			dirs = append(dirs, filepath.Join(root, pat))
		}
		sort.Strings(dirs)
		out = append(out, patternDirs{pattern: orig, dirs: dirs})
	}
	return out, nil
}

func relSlash(root, path string) string {
	rel, err := filepath.Rel(root, path)
	if err != nil {
		return filepath.ToSlash(path)
	}
	return filepath.ToSlash(rel)
}
