package bench

import (
	"bytes"
	"fmt"
	"os"
	"strings"
	"testing"
)

// TestExperimentTable runs every row — the dispatch of fig6, fig7, fig9,
// cascade and ablation used to be reached only by typing -experiment all —
// at test scale: each renders something, and each report it returns is one
// surfer-analyze -compare would accept. The rendered text of every row is
// pinned by testdata/experiments.golden (re-record only for an intended
// change, with -update). What "all" selects, what a name selects and what an
// unknown name says are read off the same table.
func TestExperimentTable(t *testing.T) {
	const path = "testdata/experiments.golden"
	p := Params{Scale: TestScale(), Iterations: 2}
	reported := map[string]bool{}
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
