// surfer-tune searches the deployment configuration space — partition
// count × combiner settings — for the lowest simulated response time of an
// application at a given scale: it sweeps the partition counts with both
// local optimisations on, then the four combinations of the two at the
// winning count.
//
// The objective is the simulated cluster's virtual response time, fully
// deterministic, so the same seed always reproduces the same search trace
// and winner (the CI smoke relies on this).
//
// Usage:
//
//	surfer-tune -app nr -vertices 65536
//	surfer-tune -app tfl -levels-min 4 -levels-max 8
package main

import (
	"cmp"
	"fmt"
	"io"
	"os"

	"repro/cmd/internal/cli"
	"repro/internal/bench"
)

func main() { os.Exit(tool(os.Stdout, os.Stderr).Run(os.Args[1:])) }

func tool(stdout, stderr io.Writer) cli.Tool {
	fs := cli.Flags("surfer-tune", stderr)
	var (
		app       = fs.String("app", "nr", "application to tune: nr, tfl or any other surfer-run -app name")
		vertices  = fs.Int("vertices", 1<<16, "synthetic graph vertices")
		machines  = fs.Int("machines", 32, "machines in the simulated cluster")
		seed      = fs.Int64("seed", 42, "random seed (drives generation and partitioning)")
		levels    = fs.Int("levels", 6, "log2 partition count evaluated first")
		levelsMin = fs.Int("levels-min", 1, "partition-count sweep lower bound (log2)")
		levelsMax = fs.Int("levels-max", 0, "partition-count sweep upper bound (log2, 0 = levels+2)")
		jsonOut   = fs.String("json", "", "write the result as a surfer-bench/v1 report to this file")
	)
	return cli.Tool{Flags: fs, Body: func([]string) error {
		if hi := cmp.Or(*levelsMax, *levels+2); *levelsMin < 1 || *levelsMax < 0 || *levels < *levelsMin || *levels > hi {
			return cli.Usage(fmt.Errorf("-levels %d, -levels-min %d, -levels-max %d: want 1 <= -levels-min <= -levels <= -levels-max (0 = -levels+2)", *levels, *levelsMin, *levelsMax))
		}
		cfg := bench.TuneConfig{
			Scale:     bench.Scale{Vertices: *vertices, Levels: *levels, Machines: *machines, Seed: *seed},
			App:       *app,
			LevelsMin: *levelsMin,
			LevelsMax: *levelsMax,
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
	}}
}
