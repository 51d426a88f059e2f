// surfer-part partitions a graph for a simulated cluster topology and
// prints the partition-sketch quality and the estimated distributed
// partitioning time for both the bandwidth-aware algorithm and the
// bandwidth-oblivious baseline.
//
// Usage:
//
//	surfer-part -graph graph.srfg -machines 32 -topology t2 -pods 2 -levels 6
package main

import (
	"fmt"
	"io"
	"os"

	surfer "repro"
	"repro/cmd/internal/cli"
	"repro/internal/cluster"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := cli.Flags("surfer-part", stderr)
	var (
		graphPath = fs.String("graph", "graph.srfg", "input graph file")
		machines  = fs.Int("machines", 32, "number of machines")
		topoKind  = fs.String("topology", "t1", "topology: t1, t2, t3")
		pods      = fs.Int("pods", 2, "pods (t2)")
		treeLvls  = fs.Int("tree-levels", 1, "switch levels above pods (t2)")
		levels    = fs.Int("levels", 6, "log2 of partition count")
		seed      = fs.Int64("seed", 42, "random seed")
		outDir    = fs.String("outdir", "", "write the bandwidth-aware partitions to this directory")
		dotPath   = fs.String("dot", "", "write the partition sketch as Graphviz DOT to this file")
	)
	return cli.Run(fs, args, stderr, func([]string) error {
		g, err := surfer.LoadGraph(*graphPath)
		if err != nil {
			return fmt.Errorf("loading graph %s: %v", *graphPath, err)
		}
		topo, err := cluster.ByName(*topoKind, *machines, *pods, *treeLvls, *seed)
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "graph: %d vertices, %d edges\n", g.NumVertices(), g.NumEdges())
		fmt.Fprintf(stdout, "cluster: %s\n", topo)

		cm := surfer.DefaultPartitionCostModel()
		for _, strat := range []surfer.PartitionStrategy{surfer.StrategyBandwidthAware, surfer.StrategyParMetis} {
			sys, err := surfer.Build(surfer.Config{
				Graph: g, Topology: topo, Levels: *levels, Strategy: strat, Seed: *seed,
			})
			if err != nil {
				return fmt.Errorf("%v: %v", strat, err)
			}
			if *outDir != "" && strat == surfer.StrategyBandwidthAware {
				if err := sys.PG.SaveDir(*outDir); err != nil {
					return fmt.Errorf("writing partitions: %v", err)
				}
				fmt.Fprintf(stdout, "wrote %d partition files to %s\n", sys.PG.Part.P, *outDir)
			}
			if *dotPath != "" && strat == surfer.StrategyBandwidthAware {
				err := cli.WriteFile(*dotPath, func(w io.Writer) error { return sys.Sketch.WriteDOT(w, g, sys.Placement) })
				if err != nil {
					return fmt.Errorf("writing DOT: %v", err)
				}
				fmt.Fprintf(stdout, "wrote partition sketch to %s\n", *dotPath)
			}
			fmt.Fprintf(stdout, "\n%v:\n", strat)
			fmt.Fprintf(stdout, "  partitions:          %d\n", sys.PG.Part.P)
			fmt.Fprintf(stdout, "  inner edge ratio:    %.1f%%\n", 100*sys.InnerEdgeRatio())
			fmt.Fprintf(stdout, "  cross edges:         %d\n", sys.PG.TotalCrossEdges())
			fmt.Fprintf(stdout, "  est. elapsed time:   %.3f s\n", sys.PartitioningTime(cm))
			var inner, total int64
			for _, pi := range sys.PG.Parts {
				inner += pi.InnerVertices
				total += int64(pi.NumVertices())
			}
			fmt.Fprintf(stdout, "  inner vertex ratio:  %.1f%%\n", 100*float64(inner)/float64(total))
		}
		return nil
	})
}
