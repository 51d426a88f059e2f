package fault

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"slices"

	"repro/internal/cluster"
)

// Load reads and decodes a fault file: a Schedule's JSON form, so a whole
// chaos scenario is reproducible from a single file. A machine named in
// "joins" starts dormant: the runner's topology must be provisioned large
// enough to include it (RunInputs expands it).
func Load(path string) (*Schedule, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("fault: reading schedule: %w", err)
	}
	// Strict about keys: some other JSON file handed to -fail or -faults must
	// not decode as the empty schedule and run fault-free.
	var s Schedule
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("fault: parsing schedule %s: %w", path, err)
	}
	if dec.More() {
		return nil, fmt.Errorf("fault: parsing schedule %s: data after the schedule object", path)
	}
	return &s, nil
}

// MaxMachine returns the largest machine ID the schedule references, or -1
// for an empty one. CLIs use it to expand the base topology when a join
// provisions machines beyond it.
func (s *Schedule) MaxMachine() int {
	if s == nil {
		return -1
	}
	top := cluster.MachineID(-1)
	for _, k := range s.Kills {
		top = max(top, k.Machine)
	}
	for _, l := range slices.Concat(s.Links, s.Drops) {
		top = max(top, l.Src, l.Dst)
	}
	for _, sd := range s.Slowdowns {
		top = max(top, sd.Machine)
	}
	for _, j := range s.Joins {
		top = max(top, j.Machine)
	}
	for _, d := range s.Drains {
		top = max(top, d.Machine)
	}
	return int(top)
}

// RunInputs returns the topology a run of the schedule on topo takes, the
// one way every tool does it: expanded when an entry names a machine past
// it, so the machines a join provisions exist, dormant, in the bandwidth
// matrix, with the schedule validated against the machine count it will
// run on.
func (s *Schedule) RunInputs(topo *cluster.Topology) (*cluster.Topology, error) {
	topo = topo.Expand(s.MaxMachine() + 1 - topo.NumMachines())
	if err := s.Validate(topo.NumMachines()); err != nil {
		return nil, err
	}
	return topo, nil
}
