package bench

import (
	"bytes"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// TestExperimentTable runs every row — the dispatch of fig6, fig7, fig9,
// cascade and ablation used to be reached only by typing -experiment all —
// at test scale: each renders something, and each report it returns is one
// surfer-analyze -compare would accept. The rendered text of every row is
// pinned by testdata/experiments.golden (re-record only for an intended
// change, with -update). What "all" selects, what a name selects and what an
// unknown name says are read off the same table. Every word of those
// reports, and of FromTune's, is documented (requireDocumented).
func TestExperimentTable(t *testing.T) {
	const path = "testdata/experiments.golden"
	p := Params{Scale: TestScale(), Iterations: 2}
	reported := map[string]bool{}
	reports := []*Report{FromTune(TuneConfig{Scale: TestScale()}, &TuneResult{})}
	var text strings.Builder
	for _, e := range Experiments() {
		t.Run(e.Name, func(t *testing.T) {
			var out bytes.Buffer
			rep, err := e.Run(p, &out)
			if err != nil {
				t.Fatal(err)
			}
			if out.Len() == 0 {
				t.Error("rendered nothing")
			}
			fmt.Fprintf(&text, "== %s\n%s", e.Name, out.Bytes())
			if rep != nil {
				reported[e.Name] = true
				reports = append(reports, rep)
				if err := rep.Validate(); err != nil {
					t.Error(err)
				}
				if len(rep.Entries) == 0 {
					t.Error("report has no entries")
				}
			}
		})
	}
	if *update {
		if err := os.WriteFile(path, []byte(text.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	} else if want, err := os.ReadFile(path); err != nil {
		t.Fatal(err)
	} else if text.String() != string(want) {
		t.Errorf("experiment text differs from %s:\n%s", path, text.String())
	}
	requireDocumented(t, reports)
	// table2 and table3 share one grid: the first to run reports it, once.
	if !reported["table1"] || !reported["table2"] || reported["table3"] || !reported["multitenant"] || !reported["scale"] {
		t.Errorf("reports came from %v; want table1, table2 (not table3 again), multitenant and scale", reported)
	}

	names := func(es []Experiment) string {
		var ns []string
		for _, e := range es {
			ns = append(ns, e.Name)
		}
		return strings.Join(ns, " ")
	}
	all, err := SelectExperiments("ALL")
	if want := "table1 table2 table3 table4 table5 fig6 fig7 fig9 fig10 fig11 cascade ablation"; err != nil || names(all) != want {
		t.Errorf("all selects %q (%v), want %q", names(all), err, want)
	}
	for _, name := range ExperimentNames() {
		if got, err := SelectExperiments(name); err != nil || name != "all" && names(got) != name {
			t.Errorf("%s selects %q (%v)", name, names(got), err)
		}
	}
	_, err = SelectExperiments("tabel1")
	if err == nil || !strings.Contains(err.Error(), `"tabel1"`) || !strings.Contains(err.Error(), strings.Join(ExperimentNames(), "|")) {
		t.Errorf("unknown name: err = %v, want one listing %v", err, ExperimentNames())
	}
}

// requireDocumented holds docs/METRICS.md, the surfer-bench/v1 vocabulary of
// record, to the reports: their schema and every Metrics and Info key,
// literal or computed, appear backticked in it.
func requireDocumented(t *testing.T, reports []*Report) {
	t.Helper()
	doc, err := os.ReadFile(filepath.Join("..", "..", "docs", "METRICS.md"))
	if err != nil {
		t.Fatal(err)
	}
	missing := map[string]bool{}
	for _, r := range reports {
		words := []string{r.Schema}
		for _, e := range r.Entries {
			words = slices.AppendSeq(slices.AppendSeq(words, maps.Keys(e.Metrics)), maps.Keys(e.Info))
		}
		for _, w := range words {
			if !strings.Contains(string(doc), "`"+w+"`") {
				missing[w] = true
			}
		}
	}
	for _, w := range slices.Sorted(maps.Keys(missing)) {
		t.Errorf("bench report word %q is not documented in docs/METRICS.md", w)
	}
}
