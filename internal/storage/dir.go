package storage

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/graph"
	"repro/internal/partition"
)

// On-disk layout of a partitioned graph, mirroring how slave machines store
// their partitions (§3): a manifest with the vertex→partition assignment
// plus one adjacency-list file per partition.
//
// manifest (little-endian):
//
//	magic   uint32 'S','R','F','M'
//	version uint32 1
//	p       uint32 partition count
//	n       uint32 vertex count
//	assign  [n]uint32
const (
	manifestMagic   = uint32('S') | uint32('R')<<8 | uint32('F')<<16 | uint32('M')<<24
	manifestVersion = 1
	manifestName    = "manifest.srfm"
)

func partFileName(p partition.PartID) string {
	return fmt.Sprintf("part-%04d.srfp", p)
}

// SaveDir writes the partitioned graph into dir (created if missing):
// manifest.srfm plus part-%04d.srfp per partition.
func (pg *PartitionedGraph) SaveDir(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	mf, err := os.Create(filepath.Join(dir, manifestName))
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(mf)
	hdr := []uint32{manifestMagic, manifestVersion, uint32(pg.Part.P), uint32(pg.G.NumVertices())}
	if err := binary.Write(bw, binary.LittleEndian, hdr); err != nil {
		mf.Close()
		return err
	}
	assign := make([]uint32, len(pg.Part.Assign))
	for i, p := range pg.Part.Assign {
		assign[i] = uint32(p)
	}
	if err := binary.Write(bw, binary.LittleEndian, assign); err != nil {
		mf.Close()
		return err
	}
	if err := bw.Flush(); err != nil {
		mf.Close()
		return err
	}
	if err := mf.Close(); err != nil {
		return err
	}
	for _, pi := range pg.Parts {
		f, err := os.Create(filepath.Join(dir, partFileName(pi.ID)))
		if err != nil {
			return err
		}
		if err := WritePartition(f, pg.G, pi); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	return nil
}

// LoadDir reads a partitioned graph written by SaveDir, rebuilding the
// graph, the partitioning, and all per-partition metadata.
func LoadDir(dir string) (*PartitionedGraph, error) {
	mf, err := os.Open(filepath.Join(dir, manifestName))
	if err != nil {
		return nil, err
	}
	defer mf.Close()
	br := bufio.NewReader(mf)
	var hdr [4]uint32
	if err := binary.Read(br, binary.LittleEndian, &hdr); err != nil {
		return nil, fmt.Errorf("storage: reading manifest header: %w", err)
	}
	if hdr[0] != manifestMagic {
		return nil, fmt.Errorf("storage: bad manifest magic %#x", hdr[0])
	}
	if hdr[1] != manifestVersion {
		return nil, fmt.Errorf("storage: unsupported manifest version %d", hdr[1])
	}
	p, n := int(hdr[2]), int(hdr[3])
	const maxReasonable = 1 << 31
	if p <= 0 || p > maxReasonable || n < 0 || n > maxReasonable {
		return nil, fmt.Errorf("storage: implausible manifest p=%d n=%d", p, n)
	}
	// The assignment is read only once the file is known to hold it: n comes
	// from the header, and 16 bytes may claim two billion vertices.
	fi, err := mf.Stat()
	if err != nil {
		return nil, err
	}
	if want := 16 + 4*int64(n); fi.Size() != want {
		return nil, fmt.Errorf("storage: manifest of %d vertices is %d bytes, want %d", n, fi.Size(), want)
	}
	raw := make([]uint32, n)
	if err := binary.Read(br, binary.LittleEndian, raw); err != nil {
		return nil, fmt.Errorf("storage: reading assignment: %w", err)
	}
	pt := &partition.Partitioning{Assign: make([]partition.PartID, n), P: p}
	for i, a := range raw {
		if int(a) >= p {
			return nil, fmt.Errorf("storage: vertex %d assigned to invalid partition %d", i, a)
		}
		pt.Assign[i] = partition.PartID(a)
	}

	b := graph.NewBuilder(n).KeepDuplicates()
	for pid := 0; pid < p; pid++ {
		f, err := os.Open(filepath.Join(dir, partFileName(partition.PartID(pid))))
		if err != nil {
			return nil, err
		}
		pd, err := ReadPartition(f)
		f.Close()
		if err != nil {
			return nil, fmt.Errorf("storage: partition %d: %w", pid, err)
		}
		if pd.ID != partition.PartID(pid) {
			return nil, fmt.Errorf("storage: file %s holds partition %d", partFileName(partition.PartID(pid)), pd.ID)
		}
		for i, v := range pd.Vertices {
			if int(v) >= n {
				return nil, fmt.Errorf("storage: partition %d vertex %d out of range", pid, v)
			}
			if pt.Assign[v] != partition.PartID(pid) {
				return nil, fmt.Errorf("storage: vertex %d in partition file %d but assigned to %d", v, pid, pt.Assign[v])
			}
			for _, nb := range pd.Adjacency[i] {
				if int(nb) >= n {
					return nil, fmt.Errorf("storage: partition %d has neighbor %d out of range", pid, nb)
				}
				b.AddEdge(v, nb)
			}
		}
	}
	return Build(b.Build(), pt)
}
