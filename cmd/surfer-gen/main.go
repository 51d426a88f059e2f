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
	return cli.Run(fs, args, stderr, func([]string) error {
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
		var g *surfer.Graph
		switch *kind {
		case "social":
			g = surfer.Social(surfer.DefaultSocial(*vertices, *seed))
		case "smallworld":
			cfg := surfer.DefaultSmallWorld(*vertices, *seed)
			cfg.RewireRatio = *rewire
			g = surfer.SmallWorld(cfg)
		case "rmat":
			g = surfer.RMAT(surfer.DefaultRMAT(*scale, *edgeFactor, *seed))
		case "uniform":
			g = uniform(*vertices, *edgeFactor, *seed)
		default:
			return fmt.Errorf("unknown kind %q (want social, smallworld, rmat or uniform)", *kind)
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
	})
}

func uniform(n, edgeFactor int, seed int64) *surfer.Graph {
	b := surfer.NewBuilder(n)
	// Simple LCG so the tool stays self-contained and deterministic.
	x := uint64(seed)*6364136223846793005 + 1442695040888963407
	next := func() int {
		x = x*6364136223846793005 + 1442695040888963407
		return int((x >> 33) % uint64(n))
	}
	for i := 0; i < n*edgeFactor; i++ {
		u, v := next(), next()
		if u != v {
			b.AddEdge(surfer.VertexID(u), surfer.VertexID(v))
		}
	}
	return b.Build()
}
