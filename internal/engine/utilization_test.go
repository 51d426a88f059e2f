package engine

import (
	"math"
	"testing"

	"repro/internal/cluster"
)

func TestMachineUtilization(t *testing.T) {
	r := simpleRunner(2)
	// Machine 0 busy 4s, machine 1 busy 2s; response = 4s.
	job := &Job{Stages: []*Stage{{Tasks: []*Task{
		{Machine: 0, Compute: 4},
		{Machine: 1, Compute: 2},
	}}}}
	if _, err := r.Run(job); err != nil {
		t.Fatal(err)
	}
	u := r.MachineUtilization()
	if math.Abs(u[0]-1.0) > 1e-9 {
		t.Fatalf("u[0] = %g, want 1", u[0])
	}
	if math.Abs(u[1]-0.5) > 1e-9 {
		t.Fatalf("u[1] = %g, want 0.5", u[1])
	}
}

func TestUtilizationZeroBeforeRuns(t *testing.T) {
	r := New(Config{Topo: cluster.NewT1(3)})
	for _, u := range r.MachineUtilization() {
		if u != 0 {
			t.Fatal("nonzero utilization before any job")
		}
	}
}
