package surfer

import (
	"math"
	"testing"

	"repro/internal/fault"
)

// TestChaosSoak replays seeded random fault schedules — degraded links,
// transfer-drop windows, machine slowdowns and permanent kills, all at once —
// against PageRank and checks the whole fault model end to end: every run
// must finish, produce vertex values bit-identical to a failure-free run,
// and report identical metrics for every worker count. Across the soak the
// schedules must actually bite (nonzero recoveries, drops and retries), so
// the determinism claim is not vacuous.
func TestChaosSoak(t *testing.T) {
	g := Social(DefaultSocial(4096, 5))
	topo := NewT2(T2Config{Machines: 8, Pods: 2, Levels: 1})
	opt := PropagationOptions{LocalPropagation: true, LocalCombination: true}
	prog := &pagerank{g: g, n: float64(g.NumVertices())}
	const iters = 3

	build := func(workers int, heartbeat float64, faults *FaultSchedule) (*State[float64], Metrics) {
		t.Helper()
		sys, err := Build(Config{
			Graph: g, Topology: topo, Levels: 4, Seed: 5,
			HeartbeatInterval: heartbeat,
			Faults:            faults,
			Speculate:         true,
			Workers:           workers,
		})
		if err != nil {
			t.Fatal(err)
		}
		st, m, err := RunPropagation(sys, sys.NewRunner(), prog, iters, opt)
		if err != nil {
			t.Fatal(err)
		}
		return st, m
	}

	baseSt, baseM := build(1, 0, nil)
	horizon := baseM.ResponseSeconds
	heartbeat := horizon / 20

	seeds := []int64{1, 2, 3, 4}
	if testing.Short() {
		seeds = seeds[:2]
	}
	var totalRecoveries, totalDrops, totalRetries int
	for _, seed := range seeds {
		sched, kills := fault.Generate(fault.GenConfig{
			Machines: topo.NumMachines(), Horizon: horizon,
			Degrades: 3, Drops: 3, Slowdowns: 2, Kills: 1, Seed: seed,
		})

		sched.Kills = kills
		refSt, refM := build(1, heartbeat, sched)
		totalRecoveries += refM.Recoveries
		totalDrops += refM.TransferDrops
		totalRetries += refM.TransferRetries

		// Chaos changes the clock and the byte counters, never the values.
		for v := range baseSt.Values {
			if math.Float64bits(refSt.Values[v]) != math.Float64bits(baseSt.Values[v]) {
				t.Fatalf("seed %d: vertex %d diverges from failure-free run", seed, v)
			}
		}
		// The same schedule replays bit-identically on any worker count.
		for _, workers := range []int{4, 8} {
			st, m := build(workers, heartbeat, sched)
			if m != refM {
				t.Fatalf("seed %d workers=%d: metrics %+v differ from serial %+v", seed, workers, m, refM)
			}
			for v := range refSt.Values {
				if math.Float64bits(st.Values[v]) != math.Float64bits(refSt.Values[v]) {
					t.Fatalf("seed %d workers=%d: vertex %d diverges", seed, workers, v)
				}
			}
		}
	}
	if totalRecoveries == 0 {
		t.Errorf("no machine kill triggered a recovery across %d seeds; soak is vacuous", len(seeds))
	}
	if totalDrops == 0 || totalRetries == 0 {
		t.Errorf("no transfer drops (%d) or retries (%d) across %d seeds; soak is vacuous",
			totalDrops, totalRetries, len(seeds))
	}
}
