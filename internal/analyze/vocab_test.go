package analyze

import (
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/trace"
)

// TestCategoriesDocumented holds docs/METRICS.md, the vocabulary of record
// of the report's readers, to the blame categories: every entry of
// Categories appears backticked in the document, and every category the
// captures of this package's tests are blamed on — the T3 run with and
// without faults, the elastic run — is one of Categories.
func TestCategoriesDocumented(t *testing.T) {
	doc, err := os.ReadFile(filepath.Join("..", "..", "docs", "METRICS.md"))
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range Categories {
		if !strings.Contains(string(doc), "`"+c+"`") {
			t.Errorf("blame category %q is not documented in docs/METRICS.md", c)
		}
	}
	for _, capture := range []func() ([]trace.Event, *cluster.Topology){
		func() ([]trace.Event, *cluster.Topology) { return t3Run(t, 1, false) },
		func() ([]trace.Event, *cluster.Topology) { return t3Run(t, 1, true) },
		func() ([]trace.Event, *cluster.Topology) { return elasticRun(t, 1) },
	} {
		r, err := Analyze(capture())
		if err != nil {
			t.Fatal(err)
		}
		blames := []map[string]float64{r.Blame}
		for _, row := range r.Stages {
			blames = append(blames, row.Seconds)
		}
		for _, blame := range blames {
			for c := range blame {
				if !slices.Contains(Categories, c) {
					t.Errorf("blame category %q is not in Categories", c)
				}
			}
		}
	}
}
