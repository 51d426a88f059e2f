package bench

import (
	"reflect"
	"strings"
	"testing"
)

// TestTuneDeterministic pins the determinism contract on the tuner itself:
// two searches from the same seed produce identical traces and the same
// winner, and the trace is the two sweeps — the levels with both local
// optimisations on, starting from the scale's own, then the other three
// flag combinations at the level that won the first.
func TestTuneDeterministic(t *testing.T) {
	cfg := TuneConfig{
		Scale: Scale{Vertices: 2048, Levels: 3, Machines: 8, Seed: 42, Workers: 1},
		App:   "nr",
	}
	a, err := Tune(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Tune(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("identical searches diverged:\n%+v\n%+v", a, b)
	}
	if len(a.Trace) != 8 {
		t.Fatalf("%d evals, want 5 levels then 3 flag combinations: %v", len(a.Trace), a.Trace)
	}
	won := a.Trace[0]
	for i, e := range a.Trace[:5] {
		if want := []int{3, 1, 2, 4, 5}[i]; e.Point != (TunePoint{Levels: want, LocalProp: true, LocalComb: true}) {
			t.Errorf("eval %d: %v, want P=%d with both local optimisations", i, e.Point, 1<<want)
		}
		if e.Objective < won.Objective {
			won = e
		}
	}
	for i, e := range a.Trace[5:] {
		if e.Point.Levels != won.Point.Levels || e.Point.LocalProp && e.Point.LocalComb {
			t.Errorf("eval %d: %v, want another flag combination at P=%d", 5+i, e.Point, 1<<won.Point.Levels)
		}
	}
	for _, e := range a.Trace {
		if e.Objective < a.Best.Objective {
			t.Errorf("%v beats the winner %v", e, a.Best)
		}
	}
}

func TestTuneRejectsUnknownApp(t *testing.T) {
	_, err := Tune(TuneConfig{Scale: Scale{Vertices: 256, Levels: 2, Machines: 4, Seed: 1}, App: "nope"})
	if err == nil {
		t.Fatal("Tune accepted an unknown app")
	}
}

// TestTuneRejectsBadBounds: every deployment comes from core.Build and the
// cluster from cluster.ByName, so a partition count the graph cannot hold
// or a cluster of no machines is an error before any evaluation runs, not a
// panic or an out-of-memory death.
func TestTuneRejectsBadBounds(t *testing.T) {
	for _, tc := range []struct {
		cfg  TuneConfig
		want string
	}{
		{TuneConfig{Scale: Scale{Vertices: 256, Levels: 2, Seed: 1}}, "at least one machine"},
		{TuneConfig{Scale: Scale{Vertices: 256, Levels: 2, Machines: 4, Seed: 1}, LevelsMax: 40}, "Levels = 40 out of range"},
		{TuneConfig{Scale: Scale{Vertices: 256, Levels: 20, Machines: 4, Seed: 1}}, "Levels = 22 out of range"},
		// A sweep that does not hold Scale.Levels is refused, not clamped.
		{TuneConfig{Scale: Scale{Vertices: 256, Levels: 2, Machines: 4, Seed: 1}, LevelsMin: 3, LevelsMax: 2}, "must hold Scale.Levels 2"},
		{TuneConfig{Scale: Scale{Vertices: 256, Levels: 5, Machines: 4, Seed: 1}, LevelsMax: 4}, "must hold Scale.Levels 5"},
		{TuneConfig{Scale: Scale{Vertices: 256, Levels: 2, Machines: 4, Seed: 1}, LevelsMin: -3}, "[LevelsMin -3,"},
	} {
		if _, err := Tune(tc.cfg); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%+v: err = %v, want one naming %q", tc.cfg, err, tc.want)
		}
	}
}
