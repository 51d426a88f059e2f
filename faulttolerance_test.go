package surfer

import (
	"math"
	"testing"

	"repro/internal/trace"
)

// TestFaultToleranceParallel is the Figure 10 scenario (a slave machine
// dies mid-run and its tasks re-execute on replicas) crossed with the
// parallel executor: for every worker count, the failover run must produce
// vertex values bit-identical to a failure-free run, and both the
// failure-free and the failover runs must report identical metrics for
// every worker count.
func TestFaultToleranceParallel(t *testing.T) {
	g := Social(DefaultSocial(8192, 3))
	topo := NewT1(8)
	opt := PropagationOptions{LocalPropagation: true, LocalCombination: true}
	prog := &pagerank{g: g, n: float64(g.NumVertices())}

	build := func(workers int, kills []Kill, heartbeat float64) (*State[float64], Metrics) {
		t.Helper()
		sys, err := Build(Config{
			Graph: g, Topology: topo, Levels: 4, Seed: 3,
			Faults: &FaultSchedule{Kills: kills}, HeartbeatInterval: heartbeat,
			Workers: workers,
		})
		if err != nil {
			t.Fatal(err)
		}
		st, m, err := RunPropagation(sys, sys.NewRunner(), prog, 3, opt)
		if err != nil {
			t.Fatal(err)
		}
		return st, m
	}

	// Failure-free serial reference, then a kill time that interrupts a
	// running task (30% into the baseline, as in examples/faulttolerance).
	baseSt, baseM := build(1, nil, 0)
	killAt := baseM.ResponseSeconds * 0.3
	heartbeat := baseM.ResponseSeconds / 20

	for _, workers := range []int{1, 2, 8} {
		t.Run(map[int]string{1: "serial", 2: "workers2", 8: "workers8"}[workers], func(t *testing.T) {
			cleanSt, cleanM := build(workers, nil, 0)
			if cleanM != baseM {
				t.Errorf("failure-free metrics diverge: %+v vs %+v", cleanM, baseM)
			}
			failSt, failM := build(workers, []Kill{{Machine: 2, At: killAt}}, heartbeat)
			if failM.Recoveries == 0 {
				t.Fatalf("failure at %.3fs produced no recoveries", killAt)
			}
			for v := range baseSt.Values {
				if math.Float64bits(cleanSt.Values[v]) != math.Float64bits(baseSt.Values[v]) {
					t.Fatalf("vertex %d: failure-free parallel value diverges from serial", v)
				}
				if math.Float64bits(failSt.Values[v]) != math.Float64bits(baseSt.Values[v]) {
					t.Fatalf("vertex %d: post-failover value diverges from failure-free run", v)
				}
			}
			// TasksRun counts completions, so it matches the clean run even
			// with re-executions; the failover cost shows up as delay.
			if failM.ResponseSeconds <= cleanM.ResponseSeconds {
				t.Errorf("failover response %.3fs not slower than clean %.3fs", failM.ResponseSeconds, cleanM.ResponseSeconds)
			}
		})
	}

	// The failover run itself is deterministic across worker counts.
	_, failRef := build(1, []Kill{{Machine: 2, At: killAt}}, heartbeat)
	for _, workers := range []int{2, 8} {
		if _, m := build(workers, []Kill{{Machine: 2, At: killAt}}, heartbeat); m != failRef {
			t.Errorf("workers=%d: failover metrics %+v, want %+v", workers, m, failRef)
		}
	}
}

// TestRunnerInheritsHeartbeat: a system's runner sees the deployment as
// configured, so a kill on a system built with a 5 s heartbeat is detected
// 5 s later, not after the engine's 1 s default.
func TestRunnerInheritsHeartbeat(t *testing.T) {
	g := Social(DefaultSocial(8192, 3))
	prog := &pagerank{g: g, n: float64(g.NumVertices())}
	rec := NewTraceRecorder()
	const killAt, heartbeat = 0.001, 5.0
	sys, err := Build(Config{
		Graph: g, Topology: NewT1(8), Levels: 4, Seed: 3, Trace: rec,
		Faults: &FaultSchedule{Kills: []Kill{{Machine: 2, At: killAt}}}, HeartbeatInterval: heartbeat,
	})
	if err != nil {
		t.Fatal(err)
	}
	_, m, err := RunPropagation(sys, sys.NewRunner(), prog, 1, PropagationOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if m.Recoveries == 0 {
		t.Fatalf("kill at %gs lost no task; the test needs one to recover", killAt)
	}
	for _, ev := range rec.Events() {
		if ev.Kind == trace.KindRetry && math.Abs(ev.Time-(killAt+heartbeat)) > 1e-9 {
			t.Fatalf("lost task recovered at %gs, want kill %gs + heartbeat %gs", ev.Time, killAt, heartbeat)
		}
	}
}
