package trace

import (
	"errors"
	"fmt"
	"os"

	"repro/internal/cluster"
)

// Raw traces as files: the one place a tool's path becomes events and a
// topology, and a topology becomes the header of the file a tool writes.

// TopoOf renders a topology as the header WriteEvents embeds.
func TopoOf(t *cluster.Topology) *TopoInfo {
	return &TopoInfo{Name: t.Name(), Machines: t.NumMachines(), Bandwidth: t.BandwidthMatrix()}
}

// Topology rebuilds the machine graph a header describes, or nil for a
// stream written without one. The header must have the square shape the
// reader checks before handing it over.
func (ti *TopoInfo) Topology() *cluster.Topology {
	if ti == nil {
		return nil
	}
	return cluster.NewTopologyFromMatrix(ti.Name, ti.Bandwidth)
}

// ErrNotStream is wrapped by every refusal of input that had not yet named
// StreamFormat — the Chrome export, an empty file — so a tool that also
// reads the Chrome export can tell "the other format" from a damaged stream.
var ErrNotStream = errors.New("trace: not a raw event trace")

// ScanFile is ScanEvents over the raw trace at path; every error names the
// file.
func ScanFile(path string, header func(*Stream) error, fn func(*Event) error) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := ScanEvents(f, header, fn); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// ReadFile is ReadEvents over the raw trace at path; every error names the
// file.
func ReadFile(path string) (*Stream, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	s, err := ReadEvents(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}
