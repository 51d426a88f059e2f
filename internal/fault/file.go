package fault

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"slices"

	"repro/internal/cluster"
)

// File is the on-disk fault-schedule format consumed by the CLIs: a JSON
// document naming machine kills, link faults, slowdowns and elastic
// membership events in one place, so a whole chaos scenario is reproducible
// from a single file.
//
//	{
//	  "kills":     [{"machine": 2, "at": 1.5}],
//	  "links":     [{"src": 0, "dst": 3, "from": 0.5, "until": 2.0,
//	                 "factor": 4}],
//	  "drops":     [{"src": 1, "dst": 2, "from": 0.2, "until": 0.8}],
//	  "slowdowns": [{"machine": 5, "from": 0, "until": 10, "factor": 3}],
//	  "joins":     [{"machine": 8, "at": 0.5, "nics": 62.5e6}],
//	  "drains":    [{"machine": 3, "at": 1.0, "deadline": 4.0}]
//	}
//
// A machine named in "joins" starts dormant: the runner's topology must be
// provisioned large enough to include it (the CLIs expand the base topology
// automatically when a join references a machine beyond it).
type File struct {
	Kills []Kill `json:"kills,omitempty"`
	// Links degrade a link by Factor; Drops blackhole it (Factor ignored).
	Links     []LinkFault    `json:"links,omitempty"`
	Drops     []LinkFault    `json:"drops,omitempty"`
	Slowdowns []Slowdown     `json:"slowdowns,omitempty"`
	Joins     []MachineJoin  `json:"joins,omitempty"`
	Drains    []MachineDrain `json:"drains,omitempty"`
}

// Load reads and decodes a fault-schedule file.
func Load(path string) (*File, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("fault: reading schedule: %w", err)
	}
	// Strict about keys: some other JSON file handed to -fail or -faults must
	// not decode as the empty schedule and run fault-free.
	var f File
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&f); err != nil {
		return nil, fmt.Errorf("fault: parsing schedule %s: %w", path, err)
	}
	if dec.More() {
		return nil, fmt.Errorf("fault: parsing schedule %s: data after the schedule object", path)
	}
	return &f, nil
}

// Schedule returns the file's transient and elastic entries as an
// engine-ready Schedule (kills are exposed separately via KillList: a
// runner takes permanent deaths as its failure plan). The entries are the
// Schedule's own types, so nothing is converted: drops join the links with
// Drop set.
func (f *File) Schedule() *Schedule {
	if f == nil || (len(f.Links) == 0 && len(f.Drops) == 0 && len(f.Slowdowns) == 0 &&
		len(f.Joins) == 0 && len(f.Drains) == 0) {
		return nil
	}
	s := &Schedule{Links: slices.Clone(f.Links), Slowdowns: f.Slowdowns, Joins: f.Joins, Drains: f.Drains}
	for _, l := range f.Drops {
		l.Drop = true
		s.Links = append(s.Links, l)
	}
	return s
}

// KillList returns the file's machine deaths.
func (f *File) KillList() []Kill {
	if f == nil {
		return nil
	}
	return f.Kills
}

// MaxMachine returns the largest machine ID the file references, or -1 for
// an empty file. CLIs use it to expand the base topology when a join
// provisions machines beyond it.
func (f *File) MaxMachine() int {
	if f == nil {
		return -1
	}
	top := cluster.MachineID(-1)
	for _, k := range f.Kills {
		top = max(top, k.Machine)
	}
	for _, l := range slices.Concat(f.Links, f.Drops) {
		top = max(top, l.Src, l.Dst)
	}
	for _, sd := range f.Slowdowns {
		top = max(top, sd.Machine)
	}
	for _, j := range f.Joins {
		top = max(top, j.Machine)
	}
	for _, d := range f.Drains {
		top = max(top, d.Machine)
	}
	return int(top)
}

// Validate rejects a fault file that references machines outside a
// numMachines-machine topology — including kills, which the Schedule
// conversion does not carry — and replays the full Schedule validation on
// the transient and elastic entries. CLIs call it right after Load so a
// stray machine ID fails loudly instead of producing a fault-free run.
func (f *File) Validate(numMachines int) error {
	if f == nil {
		return nil
	}
	for i, k := range f.Kills {
		if k.Machine < 0 || int(k.Machine) >= numMachines {
			return fmt.Errorf("fault: kill %d references machine %d outside the %d-machine topology", i, k.Machine, numMachines)
		}
	}
	if err := f.Schedule().Validate(numMachines); err != nil {
		return err
	}
	return nil
}

// RunInputs turns the file into what a run on topo takes, the one way every
// tool does it: the topology — expanded when an entry names a machine past
// it, so the machines a join provisions exist, dormant, in the bandwidth
// matrix — the kills, and the transient and elastic schedule, all validated
// against the machine count they will run on.
func (f *File) RunInputs(topo *cluster.Topology) (*cluster.Topology, []Kill, *Schedule, error) {
	topo = topo.Expand(f.MaxMachine() + 1 - topo.NumMachines())
	if err := f.Validate(topo.NumMachines()); err != nil {
		return nil, nil, nil, err
	}
	return topo, f.KillList(), f.Schedule(), nil
}
