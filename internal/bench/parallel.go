package bench

import (
	"fmt"
	"io"
	"math"
	"runtime"

	"repro/internal/apps"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/propagation"
)

// The parallel benchmark measures what the simulator's virtual clock cannot:
// the wall-clock throughput of the engine's real compute. It runs PageRank
// (NR) on an R-MAT graph with the compute worker pool at 1 worker and at N
// workers, asserts the results and metrics are bit-identical, and reports
// the speedup. A pool of one worker has nothing to compare with the serial
// run — the ratio of a configuration to itself is noise, not a speedup — so
// the benchmark refuses to run rather than record one.

// ParallelConfig sizes the parallel wall-clock benchmark.
type ParallelConfig struct {
	// Scale is log2 of the vertex count (default 17).
	Scale int
	// EdgeFactor is edges per vertex (default 8: with Scale 17 that is a
	// ~1M-edge R-MAT graph).
	EdgeFactor int
	// Levels is log2 of the partition count (default 4 = 16 partitions).
	Levels int
	// Machines in the simulated cluster (default 16).
	Machines int
	// Iterations of PageRank (default 10).
	Iterations int
	// Workers for the parallel run; 0 selects GOMAXPROCS. Must resolve to
	// at least 2.
	Workers int
	// Seed drives generation and partitioning.
	Seed int64
}

// DefaultParallelConfig returns the acceptance-scale setup: PageRank, 10
// iterations, ~1M-edge R-MAT graph, 16 partitions.
func DefaultParallelConfig() ParallelConfig {
	return ParallelConfig{Scale: 17, EdgeFactor: 8, Levels: 4, Machines: 16, Iterations: 10, Seed: 42}
}

// ParallelRun is one side of the comparison: the workload at one worker
// count, its wall time measured adaptively (the mean over WallRuns samples,
// WallRelErr the relative standard error of that mean).
type ParallelRun struct {
	Workers         int     `json:"workers"`
	WallSeconds     float64 `json:"wall_seconds"`
	WallRelErr      float64 `json:"wall_rel_err"`
	WallRuns        int     `json:"wall_runs"`
	ResponseSeconds float64 `json:"virtual_response_seconds"`
	NetworkBytes    int64   `json:"network_bytes"`
	DiskBytes       int64   `json:"disk_bytes"`
	TasksRun        int     `json:"tasks_run"`
	RankSum         float64 `json:"rank_sum"`
}

// ParallelResult is the serial-vs-parallel comparison written to
// BENCH_parallel.json.
type ParallelResult struct {
	App        string        `json:"app"`
	Vertices   int           `json:"vertices"`
	Edges      int64         `json:"edges"`
	Partitions int           `json:"partitions"`
	Iterations int           `json:"iterations"`
	GOMAXPROCS int           `json:"gomaxprocs"`
	Serial     ParallelRun   `json:"serial"`
	Parallel   ParallelRun   `json:"parallel"`
	Speedup    float64       `json:"speedup"`
	Identical  bool          `json:"bit_identical"`
	Runs       []ParallelRun `json:"runs"`
}

// ParallelBench times PageRank serial vs parallel and verifies bit-identical
// results and metrics. It returns an error when the parallel side would run
// on one worker.
func ParallelBench(cfg ParallelConfig) (*ParallelResult, error) {
	if cfg.Scale == 0 {
		cfg = DefaultParallelConfig()
	}
	parWorkers := cfg.Workers
	if parWorkers <= 0 {
		parWorkers = runtime.GOMAXPROCS(0)
	}
	if parWorkers < 2 {
		return nil, fmt.Errorf("bench: the parallel run resolves to %d worker (GOMAXPROCS=%d), the same configuration as the serial run; raise GOMAXPROCS or set Workers >= 2",
			parWorkers, runtime.GOMAXPROCS(0))
	}
	g := graph.RMAT(graph.DefaultRMAT(cfg.Scale, cfg.EdgeFactor, cfg.Seed))
	topo := cluster.NewT1(cfg.Machines)
	sys, err := core.Build(core.Config{Graph: g, Topology: topo, Levels: cfg.Levels, Seed: cfg.Seed})
	if err != nil {
		return nil, err
	}
	pg, pl := sys.PG, sys.Placement
	app := apps.NewNR(cfg.Iterations)
	opt := propagation.Options{LocalPropagation: true, LocalCombination: true}

	exec := func(workers int) (ParallelRun, []float64, error) {
		var (
			run   ParallelRun
			ranks []float64
		)
		// Every sample is the same deterministic run; only its wall time
		// differs, so the last sample's results stand for all of them.
		wall, err := MeasureWall(AdaptiveConfig{}, func() error {
			r := engine.New(engine.Config{Topo: topo, Workers: workers})
			res, m, err := app.RunPropagation(r, pg, pl, opt)
			if err != nil {
				return err
			}
			ranks = res.([]float64)
			sum := 0.0
			for _, v := range ranks {
				sum += v
			}
			run = ParallelRun{
				Workers:         workers,
				ResponseSeconds: m.ResponseSeconds,
				NetworkBytes:    m.NetworkBytes,
				DiskBytes:       m.DiskBytes,
				TasksRun:        m.TasksRun,
				RankSum:         sum,
			}
			return nil
		})
		run.WallSeconds, run.WallRelErr, run.WallRuns = wall.Mean, wall.RelErr, wall.Runs
		return run, ranks, err
	}

	serial, serialRanks, err := exec(1)
	if err != nil {
		return nil, err
	}
	parallel, parallelRanks, err := exec(parWorkers)
	if err != nil {
		return nil, err
	}
	identical := len(serialRanks) == len(parallelRanks) &&
		serial.ResponseSeconds == parallel.ResponseSeconds &&
		serial.NetworkBytes == parallel.NetworkBytes &&
		serial.DiskBytes == parallel.DiskBytes &&
		serial.TasksRun == parallel.TasksRun
	if identical {
		for v := range serialRanks {
			if math.Float64bits(serialRanks[v]) != math.Float64bits(parallelRanks[v]) {
				identical = false
				break
			}
		}
	}
	return &ParallelResult{
		App:        "NR (PageRank)",
		Vertices:   g.NumVertices(),
		Edges:      g.NumEdges(),
		Partitions: pg.Part.P,
		Iterations: cfg.Iterations,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Serial:     serial,
		Parallel:   parallel,
		Speedup:    serial.WallSeconds / parallel.WallSeconds,
		Identical:  identical,
		Runs:       []ParallelRun{serial, parallel},
	}, nil
}

// WriteParallel renders the comparison for the terminal.
func WriteParallel(w io.Writer, res *ParallelResult) {
	fmt.Fprintf(w, "Parallel executor: %s, %d iterations, %d vertices / %d edges, %d partitions\n",
		res.App, res.Iterations, res.Vertices, res.Edges, res.Partitions)
	fmt.Fprintf(w, "GOMAXPROCS: %d\n", res.GOMAXPROCS)
	fmt.Fprintf(w, "%-10s %22s %18s\n", "workers", "wall (s)", "virtual resp (s)")
	for _, r := range res.Runs {
		wall := fmt.Sprintf("%.3f ±%.0f%% (n=%d)", r.WallSeconds, r.WallRelErr*100, r.WallRuns)
		fmt.Fprintf(w, "%-10d %22s %18.3f\n", r.Workers, wall, r.ResponseSeconds)
	}
	fmt.Fprintf(w, "speedup: %.2fx, bit-identical: %v\n", res.Speedup, res.Identical)
}
