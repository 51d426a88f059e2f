package fault

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/cluster"
)

func TestValidateElastic(t *testing.T) {
	cases := []struct {
		name string
		s    Schedule
		want string // substring of the error, "" = valid
	}{
		{"empty", Schedule{}, ""},
		{"valid join and drain", Schedule{Joins: []MachineJoin{{Machine: 3, At: 1}},
			Drains: []MachineDrain{{Machine: 1, At: 2, Deadline: 5}}}, ""},
		{"join outside topology", Schedule{Joins: []MachineJoin{{Machine: 4, At: 1}}}, "outside"},
		{"join negative machine", Schedule{Joins: []MachineJoin{{Machine: -1, At: 1}}}, "outside"},
		{"join negative time", Schedule{Joins: []MachineJoin{{Machine: 3, At: -0.5}}}, "negative time"},
		{"join negative NIC rate", Schedule{Joins: []MachineJoin{{Machine: 3, At: 1, NICs: -1}}}, "negative NIC rate"},
		{"duplicate join", Schedule{Joins: []MachineJoin{{Machine: 3, At: 1}, {Machine: 3, At: 2}}}, "already live"},
		{"drain outside topology", Schedule{Drains: []MachineDrain{{Machine: 9, At: 1, Deadline: 2}}}, "outside"},
		{"drain negative time", Schedule{Drains: []MachineDrain{{Machine: 1, At: -1, Deadline: 2}}}, "negative time"},
		{"deadline before start", Schedule{Drains: []MachineDrain{{Machine: 1, At: 3, Deadline: 3}}}, "could never finish"},
		{"drain before its join", Schedule{Joins: []MachineJoin{{Machine: 3, At: 5}},
			Drains: []MachineDrain{{Machine: 3, At: 2, Deadline: 9}}}, "before it joins"},
		{"drain after its join is fine", Schedule{Joins: []MachineJoin{{Machine: 3, At: 1}},
			Drains: []MachineDrain{{Machine: 3, At: 2, Deadline: 9}}}, ""},
		{"duplicate drain", Schedule{Drains: []MachineDrain{
			{Machine: 1, At: 1, Deadline: 2}, {Machine: 1, At: 3, Deadline: 4}}}, "duplicate drain"},
		{"kill before its join", Schedule{Joins: []MachineJoin{{Machine: 2, At: 1}},
			Kills: []Kill{{Machine: 2, At: 0.5}}}, "kills machine 2 at 0.5, before it joins at 1"},
		{"kill at its join", Schedule{Joins: []MachineJoin{{Machine: 2, At: 1}},
			Kills: []Kill{{Machine: 2, At: 1}}}, "before it joins"},
		{"kill after its join is fine", Schedule{Joins: []MachineJoin{{Machine: 2, At: 1}},
			Kills: []Kill{{Machine: 2, At: 1.5}}}, ""},
	}
	for _, tc := range cases {
		err := tc.s.Validate(4)
		if tc.want == "" {
			if err != nil {
				t.Errorf("%s: unexpected error %v", tc.name, err)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want substring %q", tc.name, err, tc.want)
		}
	}
}

func TestScheduleValidateIncludesElastic(t *testing.T) {
	s := &Schedule{Joins: []MachineJoin{{Machine: 7, At: 1}}}
	if err := s.Validate(4); err == nil {
		t.Fatal("Schedule.Validate let an out-of-range join through")
	}
}

func TestAcceptingAt(t *testing.T) {
	s := &Schedule{
		Joins:  []MachineJoin{{Machine: 3, At: 2}},
		Drains: []MachineDrain{{Machine: 1, At: 5, Deadline: 9}},
	}
	cases := []struct {
		m    cluster.MachineID
		t    float64
		want bool
	}{
		{0, 0, true},    // untouched machine
		{3, 1.9, false}, // join target before its join
		{3, 2.0, true},  // live from the join instant
		{1, 4.9, true},  // not yet draining
		{1, 5.0, false}, // stops accepting at drain start
		{1, 99, false},  // and never resumes
	}
	for _, c := range cases {
		if got := s.AcceptingAt(c.m, c.t); got != c.want {
			t.Errorf("AcceptingAt(%d, %g) = %v, want %v", c.m, c.t, got, c.want)
		}
	}
	var nilSched *Schedule
	if !nilSched.AcceptingAt(0, 0) {
		t.Error("nil schedule should accept everywhere")
	}
}

// elasticDoc is a fault file with a kill, a join past an 8-machine
// topology and a drain.
const elasticDoc = `{
  "kills":  [{"machine": 2, "at": 1.5}],
  "joins":  [{"machine": 8, "at": 0.5, "nics": 62.5e6}],
  "drains": [{"machine": 3, "at": 1.0, "deadline": 4.0}]
}`

func TestFileRoundTripElastic(t *testing.T) {
	path := filepath.Join(t.TempDir(), "elastic.json")
	if err := os.WriteFile(path, []byte(elasticDoc), 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Joins) != 1 || s.Joins[0].Machine != 8 || s.Joins[0].NICs != 62.5e6 {
		t.Fatalf("joins = %+v", s.Joins)
	}
	if len(s.Drains) != 1 || s.Drains[0].Machine != 3 || s.Drains[0].Deadline != 4.0 {
		t.Fatalf("drains = %+v", s.Drains)
	}
	if got := s.MaxMachine(); got != 8 {
		t.Fatalf("MaxMachine = %d, want 8", got)
	}
	// A 9-machine topology (expanded for the join) accepts the file; the
	// base 8-machine one rejects the join.
	if err := s.Validate(9); err != nil {
		t.Fatalf("Validate(9): %v", err)
	}
	if err := s.Validate(8); err == nil {
		t.Fatal("Validate(8) let the out-of-range join through")
	}
}

// TestFileValidateCatchesOutOfRangeKill is the regression test for the
// surfer-bench -faults fix: a kills-only file once validated as the empty
// transient schedule, so a kill of a machine outside the topology was
// silently accepted and the run proceeded fault-free.
func TestFileValidateCatchesOutOfRangeKill(t *testing.T) {
	s := &Schedule{Kills: []Kill{{Machine: 40, At: 1}}}
	err := s.Validate(32)
	if err == nil || !strings.Contains(err.Error(), "outside the 32-machine topology") {
		t.Fatalf("err = %v, want out-of-range kill error", err)
	}
	if err := s.Validate(41); err != nil {
		t.Fatalf("Validate(41): %v", err)
	}
}

// TestFileRunInputs: a schedule that fits the topology leaves it alone, a
// join past it grows it by exactly the machines named, and a malformed entry
// is an error either way.
func TestFileRunInputs(t *testing.T) {
	base := cluster.NewT1(8)
	fits := &Schedule{
		Kills:  []Kill{{Machine: 2, At: 1}},
		Drains: []MachineDrain{{Machine: 3, At: 1, Deadline: 4}},
	}
	if topo, err := fits.RunInputs(base); err != nil || topo != base {
		t.Fatalf("fitting schedule: topology %v, err %v; want the base topology unchanged", topo, err)
	}

	joins := &Schedule{Joins: []MachineJoin{{Machine: 9, At: 0.5}}}
	topo, err := joins.RunInputs(base)
	if err != nil || topo.NumMachines() != 10 || base.NumMachines() != 8 {
		t.Fatalf("join past the topology: %v machines (base %d), err %v; want 10 (8)", topo.NumMachines(), base.NumMachines(), err)
	}

	bad := &Schedule{Slowdowns: []Slowdown{{Machine: 1, From: 2, Until: 1, Factor: 3}}}
	if _, err := bad.RunInputs(base); err == nil || !strings.Contains(err.Error(), "malformed window") {
		t.Fatalf("malformed slowdown: err = %v", err)
	}
	var none *Schedule
	if topo, err := none.RunInputs(base); err != nil || topo != base {
		t.Fatalf("nil schedule: %v %v", topo, err)
	}
}

func TestGenerateElasticEvents(t *testing.T) {
	cfg := GenConfig{
		Machines: 8, Horizon: 10,
		Kills: 1, Joins: 2, Drains: 3, Seed: 7,
	}
	s, kills := Generate(cfg)
	if len(s.Joins) != 2 || len(s.Drains) != 3 || len(kills) != 1 {
		t.Fatalf("joins/drains/kills = %d/%d/%d", len(s.Joins), len(s.Drains), len(kills))
	}
	// Join targets are the provisioned machines past the base topology.
	for i, j := range s.Joins {
		if int(j.Machine) != cfg.Machines+i {
			t.Errorf("join %d targets machine %d, want %d", i, j.Machine, cfg.Machines+i)
		}
	}
	// Drains pick distinct live machines, never 0 and never a killed one.
	killed := map[cluster.MachineID]bool{}
	for _, k := range kills {
		killed[k.Machine] = true
	}
	seen := map[cluster.MachineID]bool{}
	for _, d := range s.Drains {
		if d.Machine == 0 || killed[d.Machine] || seen[d.Machine] {
			t.Errorf("drain of machine %d collides (killed=%v seen=%v)", d.Machine, killed[d.Machine], seen[d.Machine])
		}
		seen[d.Machine] = true
		if d.Deadline <= d.At {
			t.Errorf("drain of machine %d has deadline %g <= at %g", d.Machine, d.Deadline, d.At)
		}
	}
	// The generated plan must pass its own validation against the expanded
	// topology, and reproduce bit-identically from the same seed.
	if err := s.Validate(cfg.Machines + cfg.Joins); err != nil {
		t.Fatalf("generated schedule invalid: %v", err)
	}
	s2, kills2 := Generate(cfg)
	if len(s2.Joins) != len(s.Joins) || len(s2.Drains) != len(s.Drains) || len(kills2) != len(kills) {
		t.Fatal("same seed generated a different schedule shape")
	}
	for i := range s.Drains {
		if s.Drains[i] != s2.Drains[i] {
			t.Fatalf("drain %d differs across same-seed generations", i)
		}
	}
}
