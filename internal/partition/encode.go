package partition

import "repro/internal/graph"

// Encoding relabels vertex IDs so that the vertices of each partition form a
// consecutive range (Appendix B): the j-th vertex of partition i gets
// encoded ID sum(sizes of partitions < i) + j. Propagation lays its
// per-vertex bags and counters out by encoded ID, so each partition's are one
// dense run; the data graph itself is not relabeled.
type Encoding struct {
	// starts[p] is the first encoded ID of partition p; starts[P] = |V|.
	starts []graph.VertexID
	// toNew[old] is old's encoded ID.
	toNew []graph.VertexID
}

// NewEncoding builds the consecutive-range encoding for a partitioning.
// Within a partition, vertices keep their relative order.
func NewEncoding(pt *Partitioning) *Encoding {
	sizes := pt.Sizes()
	e := &Encoding{
		starts: make([]graph.VertexID, pt.P+1),
		toNew:  make([]graph.VertexID, len(pt.Assign)),
	}
	for p := 0; p < pt.P; p++ {
		e.starts[p+1] = e.starts[p] + graph.VertexID(sizes[p])
	}
	cursor := make([]graph.VertexID, pt.P)
	copy(cursor, e.starts[:pt.P])
	for old, p := range pt.Assign {
		e.toNew[old] = cursor[p]
		cursor[p]++
	}
	return e
}

// ToNew maps an original vertex ID to its encoded ID.
func (e *Encoding) ToNew(old graph.VertexID) graph.VertexID { return e.toNew[old] }

// Range returns the encoded ID range [lo, hi) of partition p.
func (e *Encoding) Range(p PartID) (lo, hi graph.VertexID) {
	return e.starts[p], e.starts[p+1]
}
