package scheduler

import (
	"errors"
	"math"
	"testing"

	"repro/internal/cluster"
	"repro/internal/engine"
	"repro/internal/partition"
	"repro/internal/storage"
)

// computeJob returns a JobFunc running one task of the given duration on
// machine 0.
func computeJob(seconds float64) JobFunc {
	return func(r *engine.Runner) (engine.Metrics, error) {
		return r.Run(&engine.Job{Stages: []*engine.Stage{{
			Tasks: []*engine.Task{{Machine: 0, Compute: seconds}},
		}}})
	}
}

func TestFIFOOrder(t *testing.T) {
	s := New(engine.New(engine.Config{Topo: cluster.NewT1(2)}), FIFO)
	for i, d := range []float64{1, 2, 3} {
		s.Submit(Request{Name: string(rune('a' + i)), User: "u", Run: computeJob(d)})
	}
	s.RunAll()
	recs := s.Records()
	if len(recs) != 3 {
		t.Fatalf("records = %d", len(recs))
	}
	names := []string{"a", "b", "c"}
	var prevFinish float64
	for i, rec := range recs {
		if rec.Name != names[i] {
			t.Fatalf("order = %q at %d", rec.Name, i)
		}
		if rec.StartedAt < prevFinish {
			t.Fatal("jobs overlapped")
		}
		prevFinish = rec.FinishedAt
	}
	// Third job waited for the first two: wait = 3s.
	if math.Abs(recs[2].WaitSeconds()-3) > 1e-9 {
		t.Fatalf("job c waited %g, want 3", recs[2].WaitSeconds())
	}
}

func TestFairSharesAcrossUsers(t *testing.T) {
	s := New(engine.New(engine.Config{Topo: cluster.NewT1(2)}), Fair)
	// Alice floods the queue, then Bob submits one job. Under Fair, after
	// Alice's first job runs, Bob (served 0) goes next.
	for i := 0; i < 3; i++ {
		s.Submit(Request{Name: "alice-job", User: "alice", Run: computeJob(2)})
	}
	s.Submit(Request{Name: "bob-job", User: "bob", Run: computeJob(2)})
	s.RunAll()
	recs := s.Records()
	if recs[0].User != "alice" {
		t.Fatalf("first job user %q", recs[0].User)
	}
	if recs[1].User != "bob" {
		t.Fatalf("fair policy did not prioritize bob; order: %v", []string{recs[0].User, recs[1].User, recs[2].User, recs[3].User})
	}
	svc := s.UserService()
	if math.Abs(svc["alice"]-6) > 1e-9 || math.Abs(svc["bob"]-2) > 1e-9 {
		t.Fatalf("service = %v", svc)
	}
}

func TestManagerElectionRotates(t *testing.T) {
	s := New(engine.New(engine.Config{Topo: cluster.NewT1(3)}), FIFO)
	for i := 0; i < 6; i++ {
		s.Submit(Request{Name: "j", User: "u", Run: computeJob(0.1)})
	}
	s.RunAll()
	seen := map[cluster.MachineID]int{}
	for _, rec := range s.Records() {
		seen[rec.Manager]++
	}
	if len(seen) != 3 {
		t.Fatalf("managers used: %v, want all 3 machines", seen)
	}
	for m, c := range seen {
		if c != 2 {
			t.Fatalf("machine %d elected %d times, want 2", m, c)
		}
	}
}

func TestMembershipAfterFailure(t *testing.T) {
	topo := cluster.NewT1(3)
	pl := &partition.Placement{MachineOf: []cluster.MachineID{0, 1, 2}}
	reps := storage.PlaceReplicas(pl, topo, 1)
	s := New(engine.New(engine.Config{
		Topo: topo, Replicas: reps,
		Failures: []engine.Failure{{Machine: 1, At: 0.5}},
	}), FIFO)
	if got := len(s.Membership()); got != 3 {
		t.Fatalf("initial membership = %d", got)
	}
	// A job long enough for the failure to fire.
	s.Submit(Request{Name: "j", User: "u", Run: func(r *engine.Runner) (engine.Metrics, error) {
		return r.Run(&engine.Job{Stages: []*engine.Stage{{
			Tasks: []*engine.Task{
				{Part: 0, Machine: 0, Compute: 2},
				{Part: 1, Machine: 1, Compute: 2},
			},
		}}})
	}})
	s.RunAll()
	live := s.Membership()
	if len(live) != 2 {
		t.Fatalf("membership after failure = %d, want 2", len(live))
	}
	for _, m := range live {
		if m == 1 {
			t.Fatal("dead machine still a member")
		}
	}
	// Manager election skips the dead machine afterwards.
	for i := 0; i < 4; i++ {
		s.Submit(Request{Name: "k", User: "u", Run: computeJob(0.1)})
	}
	s.RunAll()
	for _, rec := range s.Records()[1:] {
		if rec.Manager == 1 {
			t.Fatal("dead machine elected as manager")
		}
	}
}

func TestJobErrorRecorded(t *testing.T) {
	s := New(engine.New(engine.Config{Topo: cluster.NewT1(1)}), FIFO)
	boom := errors.New("boom")
	s.Submit(Request{Name: "bad", User: "u", Run: func(r *engine.Runner) (engine.Metrics, error) {
		return engine.Metrics{}, boom
	}})
	s.RunAll()
	recs := s.Records()
	if len(recs) != 1 || !errors.Is(recs[0].Err, boom) {
		t.Fatalf("error not recorded: %+v", recs)
	}
}

func TestSubmitDuringRun(t *testing.T) {
	s := New(engine.New(engine.Config{Topo: cluster.NewT1(1)}), FIFO)
	s.Submit(Request{Name: "outer", User: "u", Run: func(r *engine.Runner) (engine.Metrics, error) {
		s.Submit(Request{Name: "inner", User: "u", Run: computeJob(1)})
		return computeJob(1)(r)
	}})
	s.RunAll()
	if len(s.Records()) != 2 {
		t.Fatalf("records = %d, want 2 (nested submission ran)", len(s.Records()))
	}
}

func TestSubmitWithoutBodyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(engine.New(engine.Config{Topo: cluster.NewT1(1)}), FIFO).Submit(Request{Name: "nil"})
}

func TestRunnerAccessor(t *testing.T) {
	s := New(engine.New(engine.Config{Topo: cluster.NewT1(2)}), FIFO)
	if s.Runner() == nil || s.Runner().NumMachines() != 2 {
		t.Fatal("runner accessor broken")
	}
	if s.Pending() != 0 {
		t.Fatal("fresh scheduler has pending jobs")
	}
	if s.RunOne() {
		t.Fatal("RunOne on empty queue returned true")
	}
}

func TestPolicyStrings(t *testing.T) {
	if FIFO.String() != "fifo" || Fair.String() != "fair" {
		t.Fatal("policy names wrong")
	}
	if Policy(9).String() == "" {
		t.Fatal("unknown policy must stringify")
	}
}

func TestFairTieBreaksBySubmission(t *testing.T) {
	s := New(engine.New(engine.Config{Topo: cluster.NewT1(1)}), Fair)
	// Both users unserved: submission order decides.
	s.Submit(Request{Name: "first", User: "b", Run: computeJob(1)})
	s.Submit(Request{Name: "second", User: "a", Run: computeJob(1)})
	s.RunAll()
	if s.Records()[0].Name != "first" {
		t.Fatalf("tie not broken by submission order: %q first", s.Records()[0].Name)
	}
}
