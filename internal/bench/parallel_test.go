package bench

import (
	"strings"
	"testing"
)

// TestParallelBench runs the serial-vs-parallel comparison at a size that
// takes milliseconds, with the pool's worker count set explicitly so it does
// not depend on the host: the two sides must be bit-identical, both must be
// timed, and a pool of one worker — the serial configuration again — must be
// refused with an error that says why.
func TestParallelBench(t *testing.T) {
	cfg := ParallelConfig{Scale: 10, EdgeFactor: 4, Levels: 2, Machines: 4, Iterations: 2, Workers: 2, Seed: 42}
	res, err := ParallelBench(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Identical {
		t.Fatalf("serial and parallel runs differ: %+v vs %+v", res.Serial, res.Parallel)
	}
	if res.Serial.Workers != 1 || res.Parallel.Workers != 2 {
		t.Fatalf("worker counts %d and %d, want 1 and 2", res.Serial.Workers, res.Parallel.Workers)
	}
	for _, run := range res.Runs {
		if run.WallRuns < 2 || run.WallSeconds <= 0 {
			t.Fatalf("workers=%d: wall %.6fs over %d samples; want an adaptive measurement", run.Workers, run.WallSeconds, run.WallRuns)
		}
	}
	if res.Speedup <= 0 {
		t.Fatalf("speedup %.3f", res.Speedup)
	}
	info := FromParallel(res).Entries[1].Info
	if info["bit_identical"] != 1 || info["workers"] != 2 || info["wall_runs"] < 2 {
		t.Fatalf("parallel entry info %v", info)
	}

	cfg.Workers = 1
	if _, err := ParallelBench(cfg); err == nil || !strings.Contains(err.Error(), "GOMAXPROCS") {
		t.Fatalf("one-worker parallel run: err = %v, want an error naming GOMAXPROCS", err)
	}
}
