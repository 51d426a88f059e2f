// surfer-part bisects a graph once for a simulated cluster topology and
// prints the partition-sketch quality and the estimated distributed
// partitioning time of that bisection for both the bandwidth-aware algorithm
// and the bandwidth-oblivious baseline.
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
	"repro/internal/partition"
)

func main() { os.Exit(tool(os.Stdout, os.Stderr).Run(os.Args[1:])) }

func tool(stdout, stderr io.Writer) cli.Tool {
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
	return cli.Tool{Flags: fs,
		Check: map[string]func(string) error{"topology": func(s string) error { _, err := cluster.ByName(s, 1, 1, 1, 0); return err }},
		Reads: []cli.Cond{cli.Only("pods", "topology", "t2"), cli.Only("tree-levels", "topology", "t2")}, // ByName reads them only for t2
		Body: func([]string) error {
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

			sys, err := surfer.Build(surfer.Config{Graph: g, Topology: topo, Levels: *levels, Seed: *seed})
			if err != nil {
				return err
			}
			if *outDir != "" {
				if err := sys.PG.SaveDir(*outDir); err != nil {
					return fmt.Errorf("writing partitions: %v", err)
				}
				fmt.Fprintf(stdout, "wrote %d partition files to %s\n", sys.PG.Part.P, *outDir)
			}
			if *dotPath != "" {
				err := cli.WriteFile(*dotPath, func(w io.Writer) error { return sys.Sketch.WriteDOT(w, g, sys.Placement) })
				if err != nil {
					return fmt.Errorf("writing DOT: %v", err)
				}
				fmt.Fprintf(stdout, "wrote partition sketch to %s\n", *dotPath)
			}
			// Both algorithms run the one bisection; they differ only in which
			// machines process each step, and so in its elapsed time.
			aware, baseline := surfer.PartitioningTime(g, sys.Sketch, topo, *seed+1)
			pt := sys.PG.Part
			ier, ivr, cross := sys.InnerEdgeRatio(), partition.InnerVertexRatio(g, pt), partition.CrossEdges(g, pt)
			for i, elapsed := range []float64{aware, baseline} {
				fmt.Fprintf(stdout, "\n%s:\n", [...]string{"bandwidth-aware", "parmetis"}[i])
				fmt.Fprintf(stdout, "  partitions:          %d\n", pt.P)
				fmt.Fprintf(stdout, "  inner edge ratio:    %.1f%%\n", 100*ier)
				fmt.Fprintf(stdout, "  cross edges:         %d\n", cross)
				fmt.Fprintf(stdout, "  est. elapsed time:   %.3f s\n", elapsed)
				fmt.Fprintf(stdout, "  inner vertex ratio:  %.1f%%\n", 100*ivr)
			}
			return nil
		}}
}
