package graph

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestParseEdgeListBasic(t *testing.T) {
	in := `# a comment
0 1
1 2

2 0   # trailing fields are ignored beyond two? no: fields[2] allowed
`
	// The parser only reads the first two fields.
	g, err := ParseEdgeList(strings.NewReader(in), 0)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumVertices() != 3 || g.NumEdges() != 3 {
		t.Fatalf("V=%d E=%d", g.NumVertices(), g.NumEdges())
	}
	if !g.HasEdge(2, 0) {
		t.Fatal("missing edge")
	}
}

func TestParseEdgeListMinVertices(t *testing.T) {
	g, err := ParseEdgeList(strings.NewReader("0 1\n"), 10)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumVertices() != 10 {
		t.Fatalf("V = %d, want 10", g.NumVertices())
	}
}

func TestParseEdgeListErrors(t *testing.T) {
	cases := []string{
		"0\n",
		"a b\n",
		"0 x\n",
		"-1 2\n",
		"0 99999999999999\n",
	}
	for _, in := range cases {
		if _, err := ParseEdgeList(strings.NewReader(in), 0); err == nil {
			t.Errorf("input %q: expected error", in)
		}
	}
}

func TestEdgeListRoundTrip(t *testing.T) {
	g := SmallWorld(DefaultSmallWorld(500, 3))
	var buf bytes.Buffer
	if err := g.WriteEdgeList(&buf); err != nil {
		t.Fatal(err)
	}
	h, err := ParseEdgeList(&buf, g.NumVertices())
	if err != nil {
		t.Fatal(err)
	}
	if !g.Equal(h) {
		t.Fatal("edge-list round trip changed graph")
	}
}

func TestEdgeListFileRoundTrip(t *testing.T) {
	g := RMAT(DefaultRMAT(7, 3, 9))
	path := filepath.Join(t.TempDir(), "g.txt")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.WriteEdgeList(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	h, err := LoadEdgeList(path)
	if err != nil {
		t.Fatal(err)
	}
	// Trailing isolated vertices may be trimmed on load; compare edges.
	if h.NumEdges() != g.NumEdges() {
		t.Fatalf("E = %d, want %d", h.NumEdges(), g.NumEdges())
	}
	g.ForEachEdge(func(u, v VertexID) bool {
		if !h.HasEdge(u, v) {
			t.Fatalf("missing edge (%d,%d)", u, v)
		}
		return true
	})
}
