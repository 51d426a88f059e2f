// surfer-gen generates synthetic graphs in the Surfer binary format.
//
// Usage:
//
//	surfer-gen -kind social -vertices 65536 -seed 42 -out graph.srfg
//	surfer-gen -kind rmat -scale 16 -edgefactor 12 -out rmat.srfg
//	surfer-gen -kind smallworld -vertices 65536 -rewire 0.05 -out sw.srfg
package main

import (
	"fmt"
	"io"
	"os"

	surfer "repro"
	"repro/cmd/internal/cli"
	"repro/internal/graph"
)

func main() { os.Exit(tool(os.Stdout, os.Stderr).Run(os.Args[1:])) }

func tool(stdout, stderr io.Writer) cli.Tool {
	fs := cli.Flags("surfer-gen", stderr)
	var (
		kind       = fs.String("kind", "social", "generator: social, smallworld, rmat, uniform")
		vertices   = fs.Int("vertices", 1<<16, "number of vertices (social, smallworld, uniform)")
		scale      = fs.Int("scale", 16, "log2 vertices (rmat)")
		edgeFactor = fs.Int("edgefactor", 12, "average out-degree (rmat, uniform)")
		rewire     = fs.Float64("rewire", 0.05, "cross-component rewire ratio (smallworld)")
		seed       = fs.Int64("seed", 42, "random seed")
		out        = fs.String("out", "graph.srfg", "output file")
	)
	return cli.Tool{Flags: fs,
		Values: map[string][]string{"kind": {"social", "smallworld", "rmat", "uniform"}},
		// The generators size slices and shifts from these and panic on a bad
		// one, or silently write a graph other than the one asked for.
		Check: map[string]func(string) error{"vertices": cli.NonNegative, "scale": cli.Within(0, 30),
			"edgefactor": cli.NonNegative, "rewire": cli.Within(0, 1)},
		Reads: []cli.Cond{cli.Only("vertices", "kind", "social", "smallworld", "uniform"), cli.Only("scale", "kind", "rmat"),
			cli.Only("edgefactor", "kind", "rmat", "uniform"), cli.Only("rewire", "kind", "smallworld")},
		Body: func([]string) error {
			var g *surfer.Graph
			switch *kind {
			case "social", "smallworld":
				// Both stitch equal components, so they write a multiple of
				// the component count.
				cfg := surfer.DefaultSmallWorld(*vertices, *seed)
				if n := cfg.Components * cfg.VerticesPerComponent; n != *vertices {
					return cli.Usage(fmt.Errorf("-vertices %d: %s would write %d vertices (%d components of %d)",
						*vertices, *kind, n, cfg.Components, cfg.VerticesPerComponent))
				}
				if *kind == "social" {
					g = surfer.Social(surfer.DefaultSocial(*vertices, *seed))
				} else {
					cfg.RewireRatio = *rewire
					g = surfer.SmallWorld(cfg)
				}
			case "rmat":
				g = surfer.RMAT(surfer.DefaultRMAT(*scale, *edgeFactor, *seed))
			case "uniform":
				g = graph.Uniform(*vertices, *vertices**edgeFactor, *seed)
			}
			if err := g.Save(*out); err != nil {
				return fmt.Errorf("saving %s: %v", *out, err)
			}
			fi, err := os.Stat(*out)
			if err != nil {
				return err
			}
			fmt.Fprintf(stdout, "wrote %s: %d vertices, %d edges, %d bytes\n", *out, g.NumVertices(), g.NumEdges(), fi.Size())
			return nil
		}}
}
