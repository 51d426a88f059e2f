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
	"maps"
	"os"
	"slices"
	"strings"

	surfer "repro"
	"repro/cmd/internal/cli"
	"repro/internal/graph"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
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
	return cli.Run(fs, args, stderr, cli.NoArgs(func() error {
		if !slices.Contains([]string{"social", "smallworld", "rmat", "uniform"}, *kind) {
			return fmt.Errorf("unknown kind %q (want social, smallworld, rmat or uniform)", *kind)
		}
		// The generators size slices and shifts from these and panic on a bad one.
		if *vertices < 0 {
			return fmt.Errorf("-vertices %d: must not be negative", *vertices)
		}
		if *scale < 0 || *scale > 30 {
			return fmt.Errorf("-scale %d: want 0 <= scale <= 30", *scale)
		}
		// And silently write a graph other than the one asked for on these.
		if *edgeFactor < 0 {
			return fmt.Errorf("-edgefactor %d: must not be negative", *edgeFactor)
		}
		if !(*rewire >= 0 && *rewire <= 1) {
			return fmt.Errorf("-rewire %g: want 0 <= rewire <= 1", *rewire)
		}
		// A set flag the kind does not read would be silently ignored.
		reads := map[string][]string{"vertices": {"social", "smallworld", "uniform"}, "scale": {"rmat"},
			"edgefactor": {"rmat", "uniform"}, "rewire": {"smallworld"}}
		for _, name := range slices.Sorted(maps.Keys(reads)) {
			if kinds := reads[name]; cli.Given(fs, name) && !slices.Contains(kinds, *kind) {
				return cli.Usage(fmt.Errorf("-%s %s: -kind %s does not read it (only %s)", name, fs.Lookup(name).Value, *kind, strings.Join(kinds, ", ")))
			}
		}
		var g *surfer.Graph
		switch *kind {
		case "social", "smallworld":
			// Both stitch equal components, so they write a multiple of
			// the component count.
			cfg := surfer.DefaultSmallWorld(*vertices, *seed)
			if n := cfg.Components * cfg.VerticesPerComponent; n != *vertices {
				return fmt.Errorf("-vertices %d: %s would write %d vertices (%d components of %d)",
					*vertices, *kind, n, cfg.Components, cfg.VerticesPerComponent)
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
	}))
}
