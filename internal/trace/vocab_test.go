package trace

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestKindsDocumented holds docs/METRICS.md, the vocabulary of record of
// everything that parses a stream, to the kinds a stream can carry: every
// kind below numKinds has a display string of its own, and that string
// appears backticked in the document.
func TestKindsDocumented(t *testing.T) {
	doc, err := os.ReadFile(filepath.Join("..", "..", "docs", "METRICS.md"))
	if err != nil {
		t.Fatal(err)
	}
	for k := EventKind(0); k < numKinds; k++ {
		switch s := k.String(); {
		case s == "unknown":
			t.Errorf("event kind %d has no display string in EventKind.String", k)
		case !strings.Contains(string(doc), "`"+s+"`"):
			t.Errorf("event kind %d (%q) is not documented in docs/METRICS.md", k, s)
		}
	}
}
