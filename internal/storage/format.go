package storage

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"slices"

	"repro/internal/graph"
	"repro/internal/partition"
)

// Partition file format: the adjacency lists of one partition in the
// <ID, d, neighbors> layout of §3, little-endian.
//
//	magic   uint32  'S','R','F','P'
//	version uint32  1
//	partID  uint32
//	nVerts  uint32
//	repeated nVerts times:
//	  id    uint32
//	  d     uint32
//	  nbrs  [d]uint32
const (
	partMagic   = uint32('S') | uint32('R')<<8 | uint32('F')<<16 | uint32('P')<<24
	partVersion = 1
)

// WritePartition serializes one partition's adjacency lists.
func WritePartition(w io.Writer, g *graph.Graph, pi *PartInfo) error {
	return writePartition(w, pi.ID, pi.Vertices, func(i int) []graph.VertexID { return g.Neighbors(pi.Vertices[i]) })
}

// writePartition writes the partition file of vertices, the i-th with the
// out-neighbors adj(i).
func writePartition(w io.Writer, id partition.PartID, vertices []graph.VertexID, adj func(i int) []graph.VertexID) error {
	bw := bufio.NewWriterSize(w, 1<<20)
	hdr := []uint32{partMagic, partVersion, uint32(id), uint32(len(vertices))}
	if err := binary.Write(bw, binary.LittleEndian, hdr); err != nil {
		return err
	}
	for i, v := range vertices {
		ns := adj(i)
		if err := binary.Write(bw, binary.LittleEndian, []uint32{uint32(v), uint32(len(ns))}); err != nil {
			return err
		}
		if err := binary.Write(bw, binary.LittleEndian, ns); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// PartitionData is the decoded form of a partition file.
type PartitionData struct {
	ID       partition.PartID
	Vertices []graph.VertexID
	// Adjacency[i] holds the out-neighbors of Vertices[i] (global IDs).
	Adjacency [][]graph.VertexID
}

// maxPrealloc caps how many vertices or neighbors ReadPartition allocates
// for before reading them: counts come from the file, and a 16-byte header
// may claim four billion vertices. Up to the cap a valid file allocates each
// slice exactly once; past it the slices grow as records actually arrive.
const maxPrealloc = 1 << 16

// ReadPartition decodes a partition file written by WritePartition.
func ReadPartition(r io.Reader) (*PartitionData, error) {
	br := bufio.NewReaderSize(r, 1<<20)
	var hdr [4]uint32
	if err := binary.Read(br, binary.LittleEndian, &hdr); err != nil {
		return nil, fmt.Errorf("storage: reading partition header: %w", err)
	}
	if hdr[0] != partMagic {
		return nil, fmt.Errorf("storage: bad partition magic %#x", hdr[0])
	}
	if hdr[1] != partVersion {
		return nil, fmt.Errorf("storage: unsupported partition version %d", hdr[1])
	}
	n := int(hdr[3])
	pd := &PartitionData{
		ID:        partition.PartID(hdr[2]),
		Vertices:  make([]graph.VertexID, 0, min(n, maxPrealloc)),
		Adjacency: make([][]graph.VertexID, 0, min(n, maxPrealloc)),
	}
	for i := 0; i < n; i++ {
		var vh [2]uint32
		if err := binary.Read(br, binary.LittleEndian, &vh); err != nil {
			return nil, fmt.Errorf("storage: reading vertex %d: %w", i, err)
		}
		ns, err := readIDs(br, int(vh[1]))
		if err != nil {
			return nil, fmt.Errorf("storage: reading neighbors of vertex %d: %w", i, err)
		}
		pd.Vertices = append(pd.Vertices, graph.VertexID(vh[0]))
		pd.Adjacency = append(pd.Adjacency, ns)
	}
	return pd, nil
}

// readIDs reads d vertex IDs in chunks of at most maxPrealloc, so a degree
// the stream cannot back fails at its end instead of allocating first.
func readIDs(br *bufio.Reader, d int) ([]graph.VertexID, error) {
	ns := make([]graph.VertexID, 0, min(d, maxPrealloc))
	for len(ns) < d {
		k := min(d-len(ns), maxPrealloc)
		ns = slices.Grow(ns, k)
		if err := binary.Read(br, binary.LittleEndian, ns[len(ns):len(ns)+k]); err != nil {
			return nil, err
		}
		ns = ns[:len(ns)+k]
	}
	return ns, nil
}
