package lint_test

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro/internal/lint"
)

// -update regenerates testdata/expected.txt from the current run:
//
//	go test ./internal/lint -run TestCorpusGolden -update
var update = flag.Bool("update", false, "rewrite the golden corpus findings file")

// corpusConfig scopes the analyzer to the known-bad fixture tree, which
// mirrors the repository layout (internal/engine, internal/apps, ...) so
// the real tier classification and the sanctioned-pool carve-out are
// exercised verbatim.
func corpusConfig() lint.Config {
	return lint.DefaultConfig(filepath.Join("testdata", "src"))
}

var (
	corpusOnce     sync.Once
	corpusCached   []lint.Finding
	corpusCacheErr error
)

func corpusFindings(t *testing.T) []lint.Finding {
	t.Helper()
	corpusOnce.Do(func() {
		corpusCached, corpusCacheErr = lint.Run(corpusConfig(), []string{"./..."})
	})
	if corpusCacheErr != nil {
		t.Fatalf("Run: %v", corpusCacheErr)
	}
	return corpusCached
}

func fileFindings(t *testing.T, file string) []lint.Finding {
	t.Helper()
	var out []lint.Finding
	for _, f := range corpusFindings(t) {
		if f.File == file {
			out = append(out, f)
		}
	}
	return out
}

// formatFindings renders findings in the golden format, the CLI's output:
// one line per finding.
func formatFindings(findings []lint.Finding) string {
	var b strings.Builder
	for _, f := range findings {
		fmt.Fprintln(&b, f)
	}
	return b.String()
}

// TestCorpusGolden pins every finding — ID, position, message — the
// analyzer reports on the bad-fixture corpus, each once: the nested map
// ranges of propagation/nested_bug.go claim one assignment twice.
func TestCorpusGolden(t *testing.T) {
	got := formatFindings(corpusFindings(t))
	goldenPath := filepath.Join("testdata", "expected.txt")
	if *update {
		if err := os.WriteFile(goldenPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("read golden: %v", err)
	}
	if got != string(want) {
		t.Errorf("corpus findings diverge from %s (run with -update to regenerate)\n--- got ---\n%s--- want ---\n%s", goldenPath, got, want)
	}
}

// TestCorpusFailsTheBuild pins the CLI contract on the corpus: findings
// exist, so surfer-lint would exit nonzero.
func TestCorpusFailsTheBuild(t *testing.T) {
	if n := len(corpusFindings(t)); n == 0 {
		t.Fatal("bad-fixture corpus produced no failing findings; the gate is dead")
	}
}

// TestNRMapRegression re-introduces the PR 1 nrMR.Map bug — emitting
// partial ranks directly from a map range — and asserts surfer-lint flags
// it as SL002 at the range statement.
func TestNRMapRegression(t *testing.T) {
	hits := fileFindings(t, "internal/apps/nrmr_bug.go")
	if len(hits) != 1 {
		t.Fatalf("nrmr_bug.go: want exactly 1 finding, got %d: %v", len(hits), hits)
	}
	f := hits[0]
	if f.ID != lint.IDMapOrder {
		t.Errorf("nrmr_bug.go finding ID = %s, want %s (map-range emission)", f.ID, lint.IDMapOrder)
	}
	if !strings.Contains(f.Message, "emit") {
		t.Errorf("finding should name the emit call, got %q", f.Message)
	}
}

// TestSanctionedPoolExempt pins the SL003 carve-out: the goroutine in the
// corpus copy of internal/pool/pool.go produces no finding, while spawn.go
// in the engine, which the pool serves, is flagged.
func TestSanctionedPoolExempt(t *testing.T) {
	if hits := fileFindings(t, "internal/pool/pool.go"); len(hits) > 0 {
		t.Errorf("sanctioned worker pool flagged: %v", hits)
	}
	var spawn int
	for _, f := range fileFindings(t, "internal/engine/spawn.go") {
		if f.ID == lint.IDConcurrency {
			spawn++
		}
	}
	// One go statement + one multi-case select; the single-case select is
	// deterministic and exempt.
	if spawn != 2 {
		t.Errorf("spawn.go: want 2 SL003 findings, got %d", spawn)
	}
}

// TestFloatAccum pins SL006: the map-range folds and the ForEach-captured
// scalar are flagged, the one under a leftover //lint:allow comment too;
// the keyed-slot carve-out and the index-disjoint worker write stay silent.
func TestFloatAccum(t *testing.T) {
	hits := fileFindings(t, "internal/propagation/floatacc_bug.go")
	for _, f := range hits {
		if f.ID != lint.IDFloatAccum {
			t.Errorf("unexpected %s finding in floatacc fixture: %v", f.ID, f)
		}
	}
	if len(hits) != 3 {
		t.Fatalf("floatacc_bug.go: want 3 SL006, got %d:\n%s", len(hits), formatFindings(hits))
	}
	for _, i := range []int{0, 2} {
		if !strings.Contains(hits[i].Message, "map range") {
			t.Errorf("map-range fold message at line %d: %q", hits[i].Line, hits[i].Message)
		}
	}
	if !strings.Contains(hits[1].Message, "ForEach") || !strings.Contains(hits[1].Message, `"total"`) {
		t.Errorf("captured-accumulator message should name ForEach and the variable, got %q", hits[1].Message)
	}
}

// TestTierPins is the satellite-6 fixture pin: internal/jobsvc and
// internal/analyze sit in the deterministic tier, proven by findings that
// only fire there (SL003 for jobsvc, SL002 for analyze). If either package
// is ever dropped from the tier table, these findings vanish.
func TestTierPins(t *testing.T) {
	var jobsvc, analyze bool
	for _, f := range fileFindings(t, "internal/jobsvc/queue.go") {
		if f.ID == lint.IDConcurrency {
			jobsvc = true
		}
	}
	for _, f := range fileFindings(t, "internal/analyze/blame.go") {
		if f.ID == lint.IDMapOrder {
			analyze = true
		}
	}
	if !jobsvc {
		t.Error("internal/jobsvc lost its deterministic-tier assignment (no SL003 from the fixture)")
	}
	if !analyze {
		t.Error("internal/analyze lost its deterministic-tier assignment (no SL002 from the fixture)")
	}
}

// TestOutputsDeterministic runs the analyzer twice and requires the
// rendered findings to match byte for byte — the same bar the analyzer
// holds the engine to.
func TestOutputsDeterministic(t *testing.T) {
	render := func() string {
		findings, err := lint.Run(corpusConfig(), []string{"./..."})
		if err != nil {
			t.Fatal(err)
		}
		return formatFindings(findings)
	}
	if render() != render() {
		t.Error("output differs between two runs over the same tree")
	}
}

// TestEmptyPattern pins the satellite fix: a pattern matching no Go files
// is an error, not a silently clean run.
func TestEmptyPattern(t *testing.T) {
	_, err := lint.Run(corpusConfig(), []string{"internal/does-not-exist/..."})
	if err == nil || !strings.Contains(err.Error(), "matched no Go files") {
		t.Fatalf("want 'matched no Go files' error, got %v", err)
	}
}

// TestDirPattern checks non-recursive package patterns: analyzing only
// internal/metrics must not surface engine findings. It surfaces its three
// time.Now calls, each under a leftover //lint:allow comment, and nothing
// for the comments themselves.
func TestDirPattern(t *testing.T) {
	findings, err := lint.Run(corpusConfig(), []string{"internal/metrics"})
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range findings {
		if !strings.HasPrefix(f.File, "internal/metrics/") {
			t.Errorf("pattern leak: %v", f)
		}
	}
	if len(findings) != 3 {
		t.Errorf("internal/metrics: want 3 findings, got %d:\n%s", len(findings), formatFindings(findings))
	}
}

// TestRepoIsClean runs the real configuration over the real tree: the
// determinism contract holds on every commit. Host wall-clock is measured
// in benchmark/, outside the linted module; code that may read the clock
// or spawn goroutines gets there through the tier table of DefaultConfig,
// in review. This is the same gate ci.sh runs via the CLI.
func TestRepoIsClean(t *testing.T) {
	findings, err := lint.Run(lint.DefaultConfig(repoRoot(t)), []string{"./..."})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(findings) > 0 {
		t.Errorf("want no findings on the current tree; got:\n%s", formatFindings(findings))
	}
}

// TestCatalogueInSync keeps the three places a check lives in agreement:
// every ID of CheckIDs() has a "kept" row in the audit table of
// docs/LINTS.md and at least one row in the fixture golden; every other
// table row says where the check went; the golden carries no ID outside
// the catalogue.
func TestCatalogueInSync(t *testing.T) {
	doc, err := os.ReadFile(filepath.Join(repoRoot(t), "docs", "LINTS.md"))
	if err != nil {
		t.Fatal(err)
	}
	verdict := map[string]string{} // audit-table ID → last column
	for _, line := range strings.Split(string(doc), "\n") {
		cells := strings.Split(line, "|")
		if len(cells) == 6 && strings.HasPrefix(strings.TrimSpace(cells[1]), "`SL") {
			verdict[strings.Trim(cells[1], " `")] = strings.TrimSpace(cells[4])
		}
	}
	golden, err := os.ReadFile(filepath.Join("testdata", "expected.txt"))
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range lint.CheckIDs() {
		if !strings.HasPrefix(verdict[id], "kept") {
			t.Errorf("%s: audit table of docs/LINTS.md says %q, want a row starting \"kept\"", id, verdict[id])
		}
		if !strings.Contains(string(golden), ": "+id+"[") {
			t.Errorf("%s has no row in testdata/expected.txt", id)
		}
		delete(verdict, id)
	}
	for id, v := range verdict {
		if !strings.HasPrefix(v, "deleted") && !strings.HasPrefix(v, "merged") && !strings.HasPrefix(v, "moved") {
			t.Errorf("%s is not in CheckIDs() but its audit row says %q", id, v)
		}
		if strings.Contains(string(golden), ": "+id+"[") {
			t.Errorf("retired %s still has rows in testdata/expected.txt", id)
		}
	}
}

func repoRoot(t *testing.T) string {
	t.Helper()
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(root, "go.mod")); err != nil {
		t.Skipf("module root not found: %v", err)
	}
	return root
}
