package graph

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
)

// Edge-list text format: one "src dst" pair per line (whitespace separated),
// '#' comments and blank lines ignored — the interchange format of SNAP and
// similar graph repositories, so real datasets can be fed to Surfer
// directly. Vertex IDs are dense non-negative integers; the vertex count is
// one more than the largest ID seen (or the optional explicit count).

// ParseEdgeList reads an edge list from r. If minVertices > 0, the graph
// has at least that many vertices even when trailing IDs never appear.
func ParseEdgeList(r io.Reader, minVertices int) (*Graph, error) {
	type edge struct{ u, v int64 }
	var edges []edge
	maxID := int64(minVertices) - 1
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			return nil, fmt.Errorf("graph: line %d: want 'src dst', got %q", lineNo, line)
		}
		u, err := strconv.ParseInt(fields[0], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("graph: line %d: bad source %q: %w", lineNo, fields[0], err)
		}
		v, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("graph: line %d: bad destination %q: %w", lineNo, fields[1], err)
		}
		if u < 0 || v < 0 {
			return nil, fmt.Errorf("graph: line %d: negative vertex ID", lineNo)
		}
		const maxVertex = 1 << 31
		if u >= maxVertex || v >= maxVertex {
			return nil, fmt.Errorf("graph: line %d: vertex ID over %d", lineNo, maxVertex)
		}
		edges = append(edges, edge{u, v})
		if u > maxID {
			maxID = u
		}
		if v > maxID {
			maxID = v
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	// Guard against a tiny file naming an astronomically large vertex ID,
	// which would make the builder allocate the whole ID range: real
	// edge lists have vertex counts within a small factor of their edge
	// counts.
	limit := int64(minVertices)
	if cap := 1024 + 256*int64(len(edges)); cap > limit {
		limit = cap
	}
	if maxID >= limit {
		return nil, fmt.Errorf("graph: vertex ID %d implausibly large for %d edges", maxID, len(edges))
	}
	b := NewBuilder(int(maxID + 1))
	for _, e := range edges {
		b.AddEdge(VertexID(e.u), VertexID(e.v))
	}
	return b.Build(), nil
}

// LoadEdgeList reads an edge-list text file.
func LoadEdgeList(path string) (*Graph, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ParseEdgeList(f, 0)
}

// WriteEdgeList writes the graph as an edge-list with a header comment.
func (g *Graph) WriteEdgeList(w io.Writer) error {
	bw := bufio.NewWriterSize(w, 1<<20)
	if _, err := fmt.Fprintf(bw, "# surfer graph: %d vertices, %d edges\n", g.NumVertices(), g.NumEdges()); err != nil {
		return err
	}
	var werr error
	g.ForEachEdge(func(u, v VertexID) bool {
		if _, err := fmt.Fprintf(bw, "%d %d\n", u, v); err != nil {
			werr = err
			return false
		}
		return true
	})
	if werr != nil {
		return werr
	}
	return bw.Flush()
}
