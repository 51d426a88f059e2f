package fault

import (
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/cluster"
)

// The linear scans the engine's Index replaced, kept as its reference:
// every query walks the whole schedule in order.

func (s *Schedule) LinkFactor(src, dst cluster.MachineID, t float64) float64 {
	if s == nil {
		return 1
	}
	f := 1.0
	for i := range s.Links {
		lf := &s.Links[i]
		if lf.Src != src || lf.Dst != dst || !active(lf.From, lf.Until, t) {
			continue
		}
		if lf.Factor > 1 {
			f *= lf.Factor
		}
	}
	return f
}

func (s *Schedule) DropsTransfer(src, dst cluster.MachineID, t float64) bool {
	if s == nil {
		return false
	}
	for i := range s.Drops {
		lf := &s.Drops[i]
		if lf.Src == src && lf.Dst == dst && active(lf.From, lf.Until, t) {
			return true
		}
	}
	return false
}

func (s *Schedule) SlowdownFactor(m cluster.MachineID, t float64) float64 {
	if s == nil {
		return 1
	}
	f := 1.0
	for i := range s.Slowdowns {
		sd := &s.Slowdowns[i]
		if sd.Machine == m && active(sd.From, sd.Until, t) && sd.Factor > 1 {
			f *= sd.Factor
		}
	}
	return f
}

func TestScheduleQueries(t *testing.T) {
	s := &Schedule{
		Links: []LinkFault{
			{Src: 0, Dst: 1, From: 1, Until: 3, Factor: 4},
			{Src: 0, Dst: 1, From: 2, Until: 5, Factor: 2},
		},
		Drops: []LinkFault{{Src: 2, Dst: 3, From: 0, Until: 1}},
		Slowdowns: []Slowdown{
			{Machine: 1, From: 0, Until: 10, Factor: 3},
			{Machine: 1, From: 5, Until: 6, Factor: 2},
		},
	}
	ix := s.Index()
	cases := []struct {
		src, dst cluster.MachineID
		at, want float64
	}{
		{0, 1, 0.5, 1}, // before window
		{0, 1, 1.5, 4}, // first fault only
		{0, 1, 2.5, 8}, // overlap compounds
		{0, 1, 4.0, 2}, // second fault only
		{0, 1, 5.0, 1}, // Until is exclusive
		{1, 0, 2.0, 1}, // directed: reverse link healthy
	}
	for _, c := range cases {
		if got := ix.LinkFactor(c.src, c.dst, c.at); got != c.want {
			t.Errorf("LinkFactor(%d→%d, %g) = %g, want %g", c.src, c.dst, c.at, got, c.want)
		}
	}
	if !ix.DropsTransfer(2, 3, 0.5) {
		t.Error("drop window not active at 0.5")
	}
	if ix.DropsTransfer(2, 3, 1.0) {
		t.Error("drop window active at its exclusive end")
	}
	if ix.DropsTransfer(3, 2, 0.5) {
		t.Error("drop applies to the reverse link")
	}
	if got := ix.SlowdownFactor(1, 5.5); got != 6 {
		t.Errorf("SlowdownFactor overlap = %g, want 6", got)
	}
	if got := ix.SlowdownFactor(0, 5.5); got != 1 {
		t.Errorf("healthy machine slowdown = %g, want 1", got)
	}
	// A plan with no transient fault indexes to the fault-free nil.
	if (&Schedule{Kills: []Kill{{Machine: 1, At: 2}}}).Index() != nil {
		t.Error("a plan with no link fault or slowdown has a non-nil index")
	}
}

// TestNilScheduleHotPathAllocatesNothing pins the fault-free hot path: the
// engine queries the schedule's index on every task start and transfer
// start, and with no faults configured (a nil schedule, so a nil index)
// those queries must stay allocation-free so the untraced, fault-free event
// loop is as cheap as it was before the fault model existed.
func TestNilScheduleHotPathAllocatesNothing(t *testing.T) {
	var s *Schedule
	ix := s.Index()
	allocs := testing.AllocsPerRun(1000, func() {
		if ix.LinkFactor(0, 1, 2.5) != 1 || ix.SlowdownFactor(0, 2.5) != 1 || ix.DropsTransfer(0, 1, 2.5) {
			t.Fatal("nil index injected a fault")
		}
	})
	if allocs != 0 {
		t.Fatalf("nil-index queries allocate %.1f objects per call, want 0", allocs)
	}
}

func TestScheduleValidate(t *testing.T) {
	nan := math.NaN()
	for _, tc := range []struct {
		s    *Schedule
		want string // substring of the error
	}{
		{&Schedule{Links: []LinkFault{{Src: 0, Dst: 9, From: 0, Until: 1, Factor: 2}}}, "link fault 0 references machine outside"},
		{&Schedule{Links: []LinkFault{{Src: 1, Dst: 1, From: 0, Until: 1, Factor: 2}}}, "loopback"},
		{&Schedule{Links: []LinkFault{{Src: 0, Dst: 1, From: 2, Until: 1, Factor: 2}}}, "malformed window"},
		{&Schedule{Links: []LinkFault{{Src: 0, Dst: 1, From: 0, Until: 1, Factor: 0.5}}}, "degrades by factor 0.5"},
		{&Schedule{Drops: []LinkFault{{Src: 0, Dst: 1, From: 0, Until: math.Inf(1)}}}, "drops transfers forever"},
		// Drops are numbered after the degradations.
		{&Schedule{Links: []LinkFault{{Src: 0, Dst: 1, From: 0, Until: 1, Factor: 2}}, Drops: []LinkFault{{Src: 1, Dst: 1, From: 0, Until: 1}}}, "link fault 1 on loopback"},
		{&Schedule{Kills: []Kill{{Machine: 1, At: -1}}}, "at time -1"},
		{&Schedule{Kills: []Kill{{Machine: 1, At: math.NaN()}}}, "at time NaN"},
		{&Schedule{Kills: []Kill{{Machine: 1, At: math.Inf(1)}}}, "at time +Inf"},
		{&Schedule{Kills: []Kill{{Machine: 4, At: 1}}}, "machine 4 outside the 4-machine topology"},
		{&Schedule{Kills: []Kill{{Machine: -1, At: 1}}}, "machine -1 outside"},
		{&Schedule{Kills: []Kill{{Machine: 1, At: 1}, {Machine: 1, At: 2}}}, "duplicate kill of machine 1"},
		{&Schedule{Kills: []Kill{{Machine: 0, At: 1}, {Machine: 1, At: 1}, {Machine: 2, At: 1}, {Machine: 3, At: 1}}}, "kills all 4 machines"},
		{&Schedule{Slowdowns: []Slowdown{{Machine: 9, From: 0, Until: 1, Factor: 2}}}, "slowdown 0 references machine outside"},
		{&Schedule{Slowdowns: []Slowdown{{Machine: 0, From: 0, Until: 1, Factor: 1}}}, "factor 1 (want > 1)"},
		// NaN fails every comparison, so each check refuses what it does not
		// accept rather than accepting what it does not refuse.
		{&Schedule{Links: []LinkFault{{Src: 0, Dst: 1, From: nan, Until: 1, Factor: 2}}}, "malformed window [NaN,1)"},
		{&Schedule{Links: []LinkFault{{Src: 0, Dst: 1, From: 0, Until: nan, Factor: 2}}}, "malformed window [0,NaN)"},
		{&Schedule{Links: []LinkFault{{Src: 0, Dst: 1, From: 0, Until: 1, Factor: nan}}}, "degrades by factor NaN"},
		{&Schedule{Drops: []LinkFault{{Src: 0, Dst: 1, From: 0, Until: nan}}}, "malformed window [0,NaN)"},
		{&Schedule{Slowdowns: []Slowdown{{Machine: 0, From: nan, Until: 1, Factor: 2}}}, "malformed window [NaN,1)"},
		{&Schedule{Slowdowns: []Slowdown{{Machine: 0, From: 0, Until: nan, Factor: 2}}}, "malformed window [0,NaN)"},
		{&Schedule{Slowdowns: []Slowdown{{Machine: 0, From: 0, Until: 1, Factor: nan}}}, "factor NaN (want > 1)"},
		{&Schedule{Joins: []MachineJoin{{Machine: 3, At: nan}}}, "join 0 of machine 3 at negative time NaN"},
		{&Schedule{Joins: []MachineJoin{{Machine: 3, At: 1, NICs: nan}}}, "negative NIC rate NaN"},
		{&Schedule{Drains: []MachineDrain{{Machine: 1, At: nan, Deadline: 2}}}, "drain 0 of machine 1 at negative time NaN"},
		{&Schedule{Drains: []MachineDrain{{Machine: 1, At: 1, Deadline: nan}}}, "deadline NaN <= start 1"},
	} {
		if err := tc.s.Validate(4); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%+v: err = %v, want %q", tc.s, err, tc.want)
		}
	}
	ok := &Schedule{
		Kills:     []Kill{{Machine: 2, At: 0}, {Machine: 1, At: 1}, {Machine: 3, At: 1}},
		Links:     []LinkFault{{Src: 0, Dst: 1, From: 0, Until: 2, Factor: 3}},
		Drops:     []LinkFault{{Src: 1, Dst: 2, From: 1, Until: 2}},
		Slowdowns: []Slowdown{{Machine: 3, From: 0, Until: 5, Factor: 2}},
	}
	if err := ok.Validate(4); err != nil {
		t.Errorf("valid schedule rejected: %v", err)
	}
	var nilSched *Schedule
	if err := nilSched.Validate(4); err != nil {
		t.Errorf("nil schedule rejected: %v", err)
	}
}

func TestRetryPolicyBackoff(t *testing.T) {
	p := RetryPolicy{}.WithDefaults()
	if p.Timeout != 1.0 || p.Backoff != 0.25 || p.MaxBackoff != 8 {
		t.Fatalf("unexpected defaults: %+v", p)
	}
	want := []float64{0.25, 0.5, 1, 2, 4, 8, 8, 8}
	for i, w := range want {
		if got := p.BackoffAt(i + 1); got != w {
			t.Errorf("BackoffAt(%d) = %g, want %g", i+1, got, w)
		}
	}
}

func TestGenerateDeterministicAndValid(t *testing.T) {
	cfg := GenConfig{Machines: 8, Horizon: 20, Degrades: 3, Drops: 2, Slowdowns: 2, Kills: 2, Seed: 7}
	s1, k1 := Generate(cfg)
	s2, k2 := Generate(cfg)
	if len(s1.Links) != 3 || len(s1.Drops) != 2 || len(s1.Slowdowns) != 2 || len(k1) != 2 || s1.Kills != nil {
		t.Fatalf("unexpected counts: %d links, %d drops, %d slowdowns, %d kills (%d in the schedule)",
			len(s1.Links), len(s1.Drops), len(s1.Slowdowns), len(k1), len(s1.Kills))
	}
	if err := s1.Validate(cfg.Machines); err != nil {
		t.Fatalf("generated schedule invalid: %v", err)
	}
	if !slices.Equal(s1.Links, s2.Links) || !slices.Equal(s1.Drops, s2.Drops) {
		t.Fatal("same seed produced different link faults")
	}
	for i := range k1 {
		if k1[i] != k2[i] {
			t.Fatal("same seed produced different kills")
		}
		if k1[i].Machine == 0 {
			t.Fatal("generator killed machine 0")
		}
	}
	seen := map[cluster.MachineID]bool{}
	for _, k := range k1 {
		if seen[k.Machine] {
			t.Fatal("generator killed the same machine twice")
		}
		seen[k.Machine] = true
	}
}

// faultDoc is a fault file with a kill and every transient fault.
const faultDoc = `{
	"kills": [{"machine": 2, "at": 1.5}],
	"links": [{"src": 0, "dst": 3, "from": 0.5, "until": 2.0, "factor": 4}],
	"drops": [{"src": 1, "dst": 2, "from": 0.2, "until": 0.8}],
	"slowdowns": [{"machine": 5, "from": 0, "until": 10, "factor": 3}]
}`

// TestFileRoundTrip: a fault file decodes straight into the Schedule the
// engine replays, kills included.
func TestFileRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "faults.json")
	if err := os.WriteFile(path, []byte(faultDoc), 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Links) != 1 || len(s.Drops) != 1 || len(s.Slowdowns) != 1 {
		t.Fatalf("unexpected schedule: %+v", s)
	}
	ix := s.Index()
	if got := ix.LinkFactor(0, 3, 1.0); got != 4 {
		t.Errorf("degradation factor = %g, want 4", got)
	}
	if !ix.DropsTransfer(1, 2, 0.5) || ix.LinkFactor(1, 2, 0.5) != 1 {
		t.Error("the drop entry does not drop, or degrades")
	}
	if got := ix.SlowdownFactor(5, 5); got != 3 {
		t.Errorf("slowdown factor = %g, want 3", got)
	}
	if len(s.Kills) != 1 || s.Kills[0] != (Kill{Machine: 2, At: 1.5}) {
		t.Fatalf("unexpected kills: %+v", s.Kills)
	}
	if _, err := Load(filepath.Join(dir, "missing.json")); err == nil {
		t.Error("loading a missing file succeeded")
	}
	for body, want := range map[string]string{
		"{":                                     "parsing",
		`{"kills": [], "faults": []}`:           "unknown field",
		`{"kills": []} {"kills": []}`:           "data after the schedule object",
		`{"kills": [{"machine": "2"}]}`:         "parsing",
		`{"drops": [{"src": 1, "drop": true}]}`: "unknown field",
	} {
		badPath := filepath.Join(dir, "bad.json")
		if err := os.WriteFile(badPath, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := Load(badPath); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("%s: error %v, want %q", body, err, want)
		}
	}
}

// TestFileEmptySchedule: nothing injects nothing, and a kill alone is a
// fault.
func TestFileEmptySchedule(t *testing.T) {
	var nilSched *Schedule
	if !nilSched.Empty() || !(&Schedule{Links: []LinkFault{}}).Empty() || nilSched.MaxMachine() != -1 {
		t.Error("an empty schedule injects something")
	}
	for _, s := range []*Schedule{
		{Kills: []Kill{{Machine: 1, At: 2}}},
		{Drops: []LinkFault{{Src: 0, Dst: 1, From: 0, Until: 1}}},
	} {
		if s.Empty() {
			t.Errorf("%+v reports empty", s)
		}
	}
}
