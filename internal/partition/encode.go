package partition

import (
	"fmt"
	"sort"

	"repro/internal/graph"
)

// Encoding relabels vertex IDs so that the vertices of each partition form a
// consecutive range (Appendix B): the j-th vertex of partition i gets
// encoded ID sum(sizes of partitions < i) + j. Surfer then finds a vertex's
// partition with a binary search over P range starts instead of a global
// vertex→partition map — crucial for Combine-task recovery, which must know
// which partition each incoming edge came from. Propagation lays its
// per-vertex bags and counters out by encoded ID, so each partition's are one
// dense run; the data graph itself is not relabeled.
type Encoding struct {
	// starts[p] is the first encoded ID of partition p; starts[P] = |V|.
	starts []graph.VertexID
	// toNew[old] and toOld[new] are the relabeling bijection.
	toNew []graph.VertexID
	toOld []graph.VertexID
}

// NewEncoding builds the consecutive-range encoding for a partitioning.
// Within a partition, vertices keep their relative order.
func NewEncoding(pt *Partitioning) *Encoding {
	n := len(pt.Assign)
	sizes := pt.Sizes()
	e := &Encoding{
		starts: make([]graph.VertexID, pt.P+1),
		toNew:  make([]graph.VertexID, n),
		toOld:  make([]graph.VertexID, n),
	}
	for p := 0; p < pt.P; p++ {
		e.starts[p+1] = e.starts[p] + graph.VertexID(sizes[p])
	}
	cursor := make([]graph.VertexID, pt.P)
	copy(cursor, e.starts[:pt.P])
	for old := 0; old < n; old++ {
		p := pt.Assign[old]
		nw := cursor[p]
		cursor[p]++
		e.toNew[old] = nw
		e.toOld[nw] = graph.VertexID(old)
	}
	return e
}

// ToNew maps an original vertex ID to its encoded ID.
func (e *Encoding) ToNew(old graph.VertexID) graph.VertexID { return e.toNew[old] }

// ToOld maps an encoded vertex ID back to the original ID.
func (e *Encoding) ToOld(nw graph.VertexID) graph.VertexID { return e.toOld[nw] }

// PartOf returns the partition of an encoded vertex ID by binary search over
// the range starts.
func (e *Encoding) PartOf(nw graph.VertexID) PartID {
	// First start strictly greater than nw, minus one.
	i := sort.Search(len(e.starts), func(i int) bool { return e.starts[i] > nw }) - 1
	return PartID(i)
}

// Range returns the encoded ID range [lo, hi) of partition p.
func (e *Encoding) Range(p PartID) (lo, hi graph.VertexID) {
	return e.starts[p], e.starts[p+1]
}

// NumVertices reports the number of encoded vertices.
func (e *Encoding) NumVertices() int { return len(e.toNew) }

// NumPartitions reports the number of partitions.
func (e *Encoding) NumPartitions() int { return len(e.starts) - 1 }

// Validate checks the bijection and range invariants.
func (e *Encoding) Validate() error {
	n := len(e.toNew)
	seen := make([]bool, n)
	for old, nw := range e.toNew {
		if int(nw) >= n {
			return fmt.Errorf("partition: encoded ID %d out of range", nw)
		}
		if seen[nw] {
			return fmt.Errorf("partition: encoded ID %d assigned twice", nw)
		}
		seen[nw] = true
		if e.toOld[nw] != graph.VertexID(old) {
			return fmt.Errorf("partition: toOld(toNew(%d)) = %d", old, e.toOld[nw])
		}
	}
	for p := 0; p+1 < len(e.starts); p++ {
		if e.starts[p] > e.starts[p+1] {
			return fmt.Errorf("partition: range starts not monotone at %d", p)
		}
	}
	if e.starts[len(e.starts)-1] != graph.VertexID(n) {
		return fmt.Errorf("partition: ranges do not cover all %d vertices", n)
	}
	return nil
}
