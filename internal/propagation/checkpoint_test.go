package propagation

import (
	"testing"

	"repro/internal/engine"
	"repro/internal/fault"
	"repro/internal/storage"
)

func (f *fixture) replicatedRunner(kills []fault.Kill, heartbeat float64, workers int) *engine.Runner {
	reps := storage.PlaceReplicas(f.pl, f.topo, 7)
	return engine.New(engine.Config{
		Topo: f.topo, Replicas: reps, Faults: &fault.Schedule{Kills: kills},
		HeartbeatInterval: heartbeat, Workers: workers,
	})
}

func (f *fixture) replicas() *storage.Replicas { return storage.PlaceReplicas(f.pl, f.topo, 7) }

func TestRunCheckpointedMatchesRunIterations(t *testing.T) {
	f := newFixture(t, 600, 2, 1)
	opt := Options{LocalPropagation: true, LocalCombination: true}
	const iters = 4

	base, baseM, err := RunIterations(f.runner(), f.pg, f.pl, sumProgram{}, NewState(f.pg, sumProgram{}), opt, iters)
	if err != nil {
		t.Fatal(err)
	}
	st, m, err := RunCheckpointed(f.replicatedRunner(nil, 0, 1), f.pg, f.pl, sumProgram{}, NewState(f.pg, sumProgram{}), opt, iters,
		CheckpointConfig{Interval: 2, Replicas: f.replicas()})
	if err != nil {
		t.Fatal(err)
	}
	for v := range base.Values {
		if st.Values[v] != base.Values[v] {
			t.Fatalf("vertex %d: checkpointed value %d != plain %d", v, st.Values[v], base.Values[v])
		}
	}
	// One checkpoint commits after iteration 2; none after the final one.
	if m.Checkpoints != 1 {
		t.Fatalf("checkpoints = %d, want 1", m.Checkpoints)
	}
	if m.Restores != 0 {
		t.Fatalf("restores = %d, want 0 without failures", m.Restores)
	}
	// Checkpointing is not free: its I/O is charged to the virtual clock.
	if m.ResponseSeconds <= baseM.ResponseSeconds {
		t.Fatalf("checkpointed response %.3fs not above plain %.3fs", m.ResponseSeconds, baseM.ResponseSeconds)
	}
}

func TestCheckpointRollbackBeatsRestartFromZero(t *testing.T) {
	f := newFixture(t, 600, 2, 1)
	opt := Options{LocalPropagation: true, LocalCombination: true}
	const iters = 4

	base, baseM, err := RunIterations(f.runner(), f.pg, f.pl, sumProgram{}, NewState(f.pg, sumProgram{}), opt, iters)
	if err != nil {
		t.Fatal(err)
	}
	// Kill a machine ~70% into the failure-free run: past the interval-2
	// checkpoint, inside iteration 3 or 4.
	killAt := baseM.ResponseSeconds * 0.7
	heartbeat := baseM.ResponseSeconds / 20
	run := func(interval, workers int) (*State[int64], engine.Metrics) {
		t.Helper()
		r := f.replicatedRunner([]fault.Kill{{Machine: 2, At: killAt}}, heartbeat, workers)
		st, m, err := RunCheckpointed(r, f.pg, f.pl, sumProgram{}, NewState(f.pg, sumProgram{}), opt, iters,
			CheckpointConfig{Interval: interval, Replicas: f.replicas()})
		if err != nil {
			t.Fatal(err)
		}
		return st, m
	}

	ckptSt, ckptM := run(2, 1)
	zeroSt, zeroM := run(0, 1)

	// Both recover to bit-identical values.
	for v := range base.Values {
		if ckptSt.Values[v] != base.Values[v] {
			t.Fatalf("vertex %d: checkpointed recovery value %d != failure-free %d", v, ckptSt.Values[v], base.Values[v])
		}
		if zeroSt.Values[v] != base.Values[v] {
			t.Fatalf("vertex %d: restart-from-zero value %d != failure-free %d", v, zeroSt.Values[v], base.Values[v])
		}
	}
	if ckptM.Restores != 1 {
		t.Fatalf("checkpointed run restores = %d, want 1", ckptM.Restores)
	}
	if ckptM.Checkpoints < 1 {
		t.Fatalf("checkpointed run committed %d checkpoints", ckptM.Checkpoints)
	}
	if zeroM.Restores != 0 || zeroM.Checkpoints != 0 {
		t.Fatalf("restart-from-zero run has checkpoints=%d restores=%d", zeroM.Checkpoints, zeroM.Restores)
	}
	// The point of checkpointing: replaying <= K iterations plus the
	// restore I/O beats replaying the whole prefix.
	if ckptM.ResponseSeconds >= zeroM.ResponseSeconds {
		t.Fatalf("checkpointed recovery %.3fs not faster than restart-from-zero %.3fs",
			ckptM.ResponseSeconds, zeroM.ResponseSeconds)
	}
	// Recovery is deterministic across worker counts.
	for _, workers := range []int{4, 8} {
		st, m := run(2, workers)
		if m != ckptM {
			t.Fatalf("workers=%d: metrics %+v differ from serial %+v", workers, m, ckptM)
		}
		for v := range base.Values {
			if st.Values[v] != base.Values[v] {
				t.Fatalf("workers=%d vertex %d diverges", workers, v)
			}
		}
	}
}

func TestRunCheckpointedCascaded(t *testing.T) {
	f := newFixture(t, 600, 2, 1)
	opt := Options{LocalPropagation: true, LocalCombination: true}
	const iters = 4
	base, _, err := RunIterations(f.runner(), f.pg, f.pl, sumProgram{}, NewState(f.pg, sumProgram{}), opt, iters)
	if err != nil {
		t.Fatal(err)
	}
	st, m, err := RunCheckpointed(f.replicatedRunner(nil, 0, 1), f.pg, f.pl, sumProgram{}, NewState(f.pg, sumProgram{}), opt, iters,
		CheckpointConfig{Interval: 2, Replicas: f.replicas(), Cascaded: true})
	if err != nil {
		t.Fatal(err)
	}
	for v := range base.Values {
		if st.Values[v] != base.Values[v] {
			t.Fatalf("vertex %d: cascaded checkpointed value %d != plain %d", v, st.Values[v], base.Values[v])
		}
	}
	if m.Checkpoints != 1 {
		t.Fatalf("checkpoints = %d, want 1", m.Checkpoints)
	}

	// A kill late in the cascaded run: the interval-2 checkpoint bounds the
	// replay to at most 2 iterations, beating restart-from-zero, and the
	// recovered values stay bit-identical (the cascade skip pattern is keyed
	// to absolute iteration indices, so the replay skips what the original
	// run skipped).
	killAt := m.ResponseSeconds * 0.7
	heartbeat := m.ResponseSeconds / 20
	runKilled := func(interval int) (*State[int64], engine.Metrics) {
		t.Helper()
		r := f.replicatedRunner([]fault.Kill{{Machine: 2, At: killAt}}, heartbeat, 1)
		st, km, err := RunCheckpointed(r, f.pg, f.pl, sumProgram{}, NewState(f.pg, sumProgram{}), opt, iters,
			CheckpointConfig{Interval: interval, Replicas: f.replicas(), Cascaded: true})
		if err != nil {
			t.Fatal(err)
		}
		return st, km
	}
	ckptSt, ckptM := runKilled(2)
	zeroSt, zeroM := runKilled(0)
	for v := range base.Values {
		if ckptSt.Values[v] != base.Values[v] || zeroSt.Values[v] != base.Values[v] {
			t.Fatalf("vertex %d: cascaded recovery diverges from failure-free run", v)
		}
	}
	if ckptM.Restores != 1 {
		t.Fatalf("cascaded checkpointed run restores = %d, want 1", ckptM.Restores)
	}
	if ckptM.ResponseSeconds >= zeroM.ResponseSeconds {
		t.Fatalf("cascaded checkpointed recovery %.3fs not faster than restart-from-zero %.3fs",
			ckptM.ResponseSeconds, zeroM.ResponseSeconds)
	}
}

func TestRunCheckpointedValidation(t *testing.T) {
	f := newFixture(t, 100, 1, 1)
	st := NewState(f.pg, sumProgram{})
	if _, _, err := RunCheckpointed(f.runner(), f.pg, f.pl, sumProgram{}, st, Options{}, 2,
		CheckpointConfig{Interval: -1}); err == nil {
		t.Fatal("negative interval accepted")
	}
	if _, _, err := RunCheckpointed(f.runner(), f.pg, f.pl, sumProgram{}, st, Options{}, 2,
		CheckpointConfig{Interval: 2}); err == nil {
		t.Fatal("interval without replicas accepted")
	}
}
