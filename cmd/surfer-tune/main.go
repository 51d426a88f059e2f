// surfer-tune searches the deployment configuration space — engine workers
// × partition count × combiner settings — by coordinate descent and reports
// the best configuration for an application at a given scale.
//
// The default objective is the simulated cluster's virtual response time:
// fully deterministic, so the same seed always reproduces the same search
// trajectory and winner (the CI smoke relies on this). With -objective wall
// the tuner instead minimizes host wall-clock, measured adaptively (each
// configuration reruns until the relative standard error of the mean drops
// below -max-rel-err or -max-runs is hit), and also sweeps the worker-pool
// axis, which never affects virtual results.
//
// Usage:
//
//	surfer-tune -app nr -vertices 65536 -budget 24
//	surfer-tune -app tfl -objective wall -max-rel-err 0.1
package main

import (
	"fmt"
	"io"
	"os"

	"repro/cmd/internal/cli"
	"repro/internal/bench"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := cli.Flags("surfer-tune", stderr)
	var (
		app       = fs.String("app", "nr", "application to tune: nr, tfl or any other surfer-run -app name")
		vertices  = fs.Int("vertices", 1<<16, "synthetic graph vertices")
		machines  = fs.Int("machines", 32, "machines in the simulated cluster")
		seed      = fs.Int64("seed", 42, "random seed (drives generation, partitioning, and the deterministic objective)")
		levels    = fs.Int("levels", 6, "starting log2 partition count")
		levelsMin = fs.Int("levels-min", 1, "partition-count axis lower bound (log2)")
		levelsMax = fs.Int("levels-max", 0, "partition-count axis upper bound (log2, 0 = levels+2)")
		budget    = fs.Int("budget", 24, "maximum distinct configuration evaluations")
		objective = fs.String("objective", "virtual", "virtual (deterministic simulated seconds) | wall (adaptive host seconds)")
		maxRuns   = fs.Int("max-runs", 6, "wall objective: maximum reruns per configuration")
		maxRelErr = fs.Float64("max-rel-err", 0.1, "wall objective: relative standard error convergence bound")
		jsonOut   = fs.String("json", "", "write the result as a surfer-bench/v1 report to this file")
	)
	return cli.Run(fs, args, stderr, func([]string) error {
		cfg := bench.TuneConfig{
			Scale:     bench.Scale{Vertices: *vertices, Levels: *levels, Machines: *machines, Seed: *seed},
			App:       *app,
			Budget:    *budget,
			LevelsMin: *levelsMin,
			LevelsMax: *levelsMax,
			Adaptive:  bench.AdaptiveConfig{MaxRuns: *maxRuns, MaxRelErr: *maxRelErr},
		}
		switch *objective {
		case "virtual":
			cfg.Objective = bench.ObjVirtual
		case "wall":
			cfg.Objective = bench.ObjWall
		default:
			return fmt.Errorf("unknown objective %q (want virtual or wall)", *objective)
		}
		res, err := bench.Tune(cfg)
		if err != nil {
			return err
		}
		bench.WriteTune(stdout, cfg, res)
		if *jsonOut != "" {
			return bench.WriteReport(*jsonOut, bench.FromTune(cfg, res))
		}
		return nil
	})
}
