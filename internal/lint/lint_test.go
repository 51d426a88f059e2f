package lint_test

import (
	"encoding/json"
	"flag"
	"fmt"
	"go/parser"
	"go/token"
	"os"
	"path"
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

// formatFindings renders findings in the golden format: one line per
// finding, suppressed ones annotated with their pragma reason so the
// suppression inventory is golden-tested too.
func formatFindings(findings []lint.Finding) string {
	var b strings.Builder
	for _, f := range findings {
		fmt.Fprint(&b, f.String())
		if f.Suppressed {
			fmt.Fprintf(&b, " [suppressed: %s]", f.Reason)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// TestCorpusGolden pins every finding — ID, position, message, suppression
// state — the analyzer reports on the bad-fixture corpus.
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

// TestCorpusFailsTheBuild pins the CLI contract on the corpus: unsuppressed
// findings exist, so surfer-lint would exit nonzero.
func TestCorpusFailsTheBuild(t *testing.T) {
	if n := len(lint.Unsuppressed(corpusFindings(t))); n == 0 {
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
	if f.Suppressed {
		t.Error("the nrMR.Map bug must not be suppressible without a pragma")
	}
	if !strings.Contains(f.Message, "emit") {
		t.Errorf("finding should name the emit call, got %q", f.Message)
	}
}

// TestPragmaSuppression covers the //lint:allow path: reasoned pragmas
// (leading and trailing) drop findings from the exit status but keep them
// in the stream with Suppressed=true and the reason; a pragma without a
// reason suppresses nothing and is itself an SL000 finding, as are the
// unknown-ID and malformed-ID pragmas at the bottom of the fixture.
func TestPragmaSuppression(t *testing.T) {
	fixture := fileFindings(t, "internal/metrics/suppressed.go")
	if len(fixture) != 6 {
		t.Fatalf("suppressed.go: want 6 findings (2 suppressed SL001 + 1 live SL001 + 3 SL000), got %d:\n%s",
			len(fixture), formatFindings(fixture))
	}
	var suppressed, live, audit int
	for _, f := range fixture {
		switch {
		case f.ID == lint.IDPragma:
			audit++
			if f.Suppressed {
				t.Errorf("SL000 at line %d was suppressed; the pragma audit must not be silenceable", f.Line)
			}
		case f.Suppressed:
			suppressed++
			if f.Reason == "" {
				t.Errorf("suppressed finding at line %d has no reason", f.Line)
			}
		default:
			live++
		}
	}
	if suppressed != 2 || live != 1 || audit != 3 {
		t.Fatalf("want 2 suppressed + 1 live + 3 audit, got %d + %d + %d", suppressed, live, audit)
	}
	for _, f := range lint.Unsuppressed(fixture) {
		if f.Suppressed {
			t.Fatal("Unsuppressed returned a suppressed finding")
		}
	}

	// The -json contract: suppressed findings serialize with
	// "suppressed": true and their pragma reason.
	raw, err := json.Marshal(fixture)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(raw), `"suppressed":true`) {
		t.Errorf("JSON output lacks suppressed:true: %s", raw)
	}
	if !strings.Contains(string(raw), "one-shot process start stamp") {
		t.Errorf("JSON output lacks the pragma reason: %s", raw)
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

// TestFloatAccum pins SL006: the map-range fold and the ForEach-captured
// scalar are flagged; the keyed-slot carve-out and the index-disjoint
// worker write stay silent; the pragma case is suppressed.
func TestFloatAccum(t *testing.T) {
	var live, suppressed []lint.Finding
	for _, f := range fileFindings(t, "internal/propagation/floatacc_bug.go") {
		if f.ID != lint.IDFloatAccum {
			t.Errorf("unexpected %s finding in floatacc fixture: %v", f.ID, f)
			continue
		}
		if f.Suppressed {
			suppressed = append(suppressed, f)
		} else {
			live = append(live, f)
		}
	}
	if len(live) != 2 || len(suppressed) != 1 {
		t.Fatalf("floatacc_bug.go: want 2 live + 1 suppressed SL006, got %d + %d", len(live), len(suppressed))
	}
	if !strings.Contains(live[0].Message, "map range") {
		t.Errorf("map-range fold message: %q", live[0].Message)
	}
	if !strings.Contains(live[1].Message, "ForEach") || !strings.Contains(live[1].Message, `"total"`) {
		t.Errorf("captured-accumulator message should name ForEach and the variable, got %q", live[1].Message)
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

// TestOutputsDeterministic runs the analyzer twice and requires the JSON
// serialization to match byte for byte — the same bar the analyzer holds
// the engine to.
func TestOutputsDeterministic(t *testing.T) {
	render := func() string {
		findings, err := lint.Run(corpusConfig(), []string{"./..."})
		if err != nil {
			t.Fatal(err)
		}
		j, err := json.MarshalIndent(findings, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		return string(j)
	}
	if render() != render() {
		t.Error("JSON output differs between two runs over the same tree")
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
// internal/metrics must not surface engine findings.
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
	if len(findings) != 6 {
		t.Errorf("internal/metrics: want 6 findings, got %d:\n%s", len(findings), formatFindings(findings))
	}
}

// TestRepoIsClean runs the real configuration over the real tree: the
// determinism contract holds on every commit, and the suppression inventory
// is empty — host wall-clock is measured in benchmark/, outside the linted
// module, so a new //lint:allow anywhere has to be added here, in review.
// This is the same gate ci.sh runs via the CLI.
func TestRepoIsClean(t *testing.T) {
	if findings := repoFindings(t); len(findings) > 0 {
		t.Errorf("want no findings, suppressed or not, on the current tree; got:\n%s", formatFindings(findings))
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

// TestSuppressedSinksUnreachable is the executable half of the argument
// that retired the call-graph check (docs/LINTS.md, "Why nothing is lost
// with SL005"): every entropy sink is an SL001 finding where it stands, so
// the only ones deterministic code could reach unreported are the
// suppressed ones — and no deterministic package imports, through any
// chain, a package that holds one. The tree holds none today; the test
// guards the next pragma TestRepoIsClean is changed to admit.
func TestSuppressedSinksUnreachable(t *testing.T) {
	root := repoRoot(t)
	cfg := lint.DefaultConfig(root)
	findings := repoFindings(t)
	sinks := map[string]bool{} // import path of a package with a suppressed sink
	for _, f := range findings {
		if f.ID == lint.IDEntropy && f.Suppressed {
			sinks[path.Join(cfg.Module, path.Dir(f.File))] = true
		}
	}
	memo := map[string][]string{}
	imports := func(pkg string) []string {
		if out, ok := memo[pkg]; ok {
			return out
		}
		dir := filepath.Join(root, filepath.FromSlash(strings.TrimPrefix(strings.TrimPrefix(pkg, cfg.Module), "/")))
		pkgs, err := parser.ParseDir(token.NewFileSet(), dir, func(fi os.FileInfo) bool {
			return !strings.HasSuffix(fi.Name(), "_test.go")
		}, parser.ImportsOnly)
		if err != nil {
			t.Fatal(err)
		}
		var out []string
		for _, p := range pkgs {
			for _, file := range p.Files {
				for _, imp := range file.Imports {
					if ip := strings.Trim(imp.Path.Value, `"`); ip == cfg.Module || strings.HasPrefix(ip, cfg.Module+"/") {
						out = append(out, ip)
					}
				}
			}
		}
		memo[pkg] = out
		return out
	}
	for _, det := range cfg.DeterministicDirs {
		err := filepath.WalkDir(filepath.Join(root, filepath.FromSlash(det)), func(dir string, d os.DirEntry, err error) error {
			if err != nil || !d.IsDir() {
				return err
			}
			if d.Name() == "testdata" {
				return filepath.SkipDir
			}
			rel, _ := filepath.Rel(root, dir)
			start := path.Join(cfg.Module, filepath.ToSlash(rel))
			via := map[string]string{start: ""}
			for queue := []string{start}; len(queue) > 0; queue = queue[1:] {
				for _, ip := range imports(queue[0]) {
					if _, seen := via[ip]; seen {
						continue
					}
					via[ip] = queue[0]
					queue = append(queue, ip)
					if sinks[ip] {
						t.Errorf("deterministic package %s reaches the suppressed entropy sink in %s (imported by %s)", start, ip, queue[0])
					}
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}

var (
	repoOnce     sync.Once
	repoCached   []lint.Finding
	repoCacheErr error
)

// repoFindings is the real configuration over the real tree, run once.
func repoFindings(t *testing.T) []lint.Finding {
	t.Helper()
	root := repoRoot(t)
	repoOnce.Do(func() {
		repoCached, repoCacheErr = lint.Run(lint.DefaultConfig(root), []string{"./..."})
	})
	if repoCacheErr != nil {
		t.Fatalf("Run: %v", repoCacheErr)
	}
	return repoCached
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
