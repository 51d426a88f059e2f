package engine

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/cluster"
)

// randomJob builds a random two-stage job on n machines.
func randomJob(rng *rand.Rand, n int) (*Job, int64) {
	s1 := rng.Intn(12) + 1
	s2 := rng.Intn(8) + 1
	stage2 := make([]*Task, s2)
	for i := range stage2 {
		stage2[i] = &Task{
			Kind:    KindCombine,
			Machine: cluster.MachineID(rng.Intn(n)),
			Compute: rng.Float64(),
		}
	}
	var crossBytes int64
	stage1 := make([]*Task, s1)
	for i := range stage1 {
		t := &Task{
			Machine:   cluster.MachineID(rng.Intn(n)),
			Compute:   rng.Float64(),
			DiskRead:  int64(rng.Intn(1 << 20)),
			DiskWrite: int64(rng.Intn(1 << 20)),
		}
		for o := 0; o < rng.Intn(3); o++ {
			dst := rng.Intn(s2)
			bytes := int64(rng.Intn(1<<20) + 1)
			t.Outputs = append(t.Outputs, Output{DstTask: dst, Bytes: bytes})
			if stage2[dst].Machine != t.Machine {
				crossBytes += bytes
			}
		}
		stage1[i] = t
	}
	return &Job{Stages: []*Stage{{Tasks: stage1}, {Tasks: stage2}}}, crossBytes
}

func TestQuickEngineInvariants(t *testing.T) {
	f := func(seed int64, nPick uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + int(nPick%6)
		job, crossBytes := randomJob(rng, n)
		r := New(Config{Topo: cluster.NewT1(n)})
		m, err := r.Run(job)
		if err != nil {
			return false
		}
		// Network bytes are exactly the cross-machine output bytes.
		if m.NetworkBytes != crossBytes {
			return false
		}
		// Disk bytes are exactly the summed task disk traffic.
		var disk int64
		for _, st := range job.Stages {
			for _, task := range st.Tasks {
				disk += task.DiskRead + task.DiskWrite
			}
		}
		if m.DiskBytes != disk {
			return false
		}
		// Elapsed time bounds: response covers the busiest machine but
		// not more than total serialized work plus transfer time.
		if m.ResponseSeconds < 0 || m.MachineSeconds < 0 {
			return false
		}
		if m.MachineSeconds > m.ResponseSeconds*float64(n)+1e-9 {
			return false
		}
		// Every task completed exactly once.
		want := len(job.Stages[0].Tasks) + len(job.Stages[1].Tasks)
		return m.TasksRun == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickEngineDeterminism(t *testing.T) {
	f := func(seed int64) bool {
		run := func() Metrics {
			rng := rand.New(rand.NewSource(seed))
			job, _ := randomJob(rng, 4)
			r := New(Config{Topo: cluster.NewT1(4)})
			m, err := r.Run(job)
			if err != nil {
				t.Fatal(err)
			}
			return m
		}
		return run() == run()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
