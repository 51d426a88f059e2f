// surfer-bench regenerates the paper's evaluation tables and figures on the
// simulated cluster and prints them in the paper's layout.
//
// Usage:
//
//	surfer-bench -experiment all
//	surfer-bench -experiment table1
//	surfer-bench -experiment fig9 -vertices 131072
package main

import (
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"slices"
	"strconv"
	"strings"
	"time"

	"repro/cmd/internal/cli"
	"repro/internal/bench"
	"repro/internal/fault"
	"repro/internal/graph"
	"repro/internal/trace"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// builds is the vertex count of every bench graph asked for n vertices: the
// stitched small-world base (also under the social overlay) rounds n down to
// a whole number of components.
func builds(n int) int {
	c := graph.DefaultSmallWorld(n, 0)
	return c.Components * c.VerticesPerComponent
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := cli.Flags("surfer-bench", stderr)
	var (
		experiment = fs.String("experiment", "all", strings.Join(bench.ExperimentNames(), "|"))
		vertices   = fs.Int("vertices", 1<<16, "synthetic graph vertices")
		sizes      = fs.String("sizes", "", "comma-separated vertex counts for the scale experiment (default: -vertices)")
		machines   = fs.Int("machines", 32, "machines in the simulated cluster")
		levels     = fs.Int("levels", 6, "log2 of partition count")
		seed       = fs.Int64("seed", 42, "random seed")
		iterations = fs.Int("iterations", 3, "iterations for the cascade study")
		workers    = fs.Int("workers", 0, "worker pool size for partitioning and compute (0 = GOMAXPROCS, 1 = serial); results are identical for every value")
		traceOut   = fs.String("trace", "", "write a Chrome trace_event JSON timeline of every simulated run to this file")
		eventsOut  = fs.String("events", "", "write the raw event stream of every simulated run to this file for surfer-analyze")
		jsonOut    = fs.String("json", "", "write a machine-readable bench report (surfer-bench/v1 schema) to this file for surfer-analyze -compare")
		faultsPath = fs.String("faults", "", "JSON fault-schedule file (kills, degraded links, drop windows, slowdowns) injected into every simulated run")
		cpuProfile = fs.String("cpuprofile", "", "write a CPU pprof profile of the bench process to this file (go tool pprof; see docs/TUNING.md)")
		memProfile = fs.String("memprofile", "", "write a heap pprof profile at exit to this file (go tool pprof)")
	)
	return cli.Run(fs, args, stderr, cli.NoArgs(func() (err error) {
		if err := cli.Workers(*workers); err != nil {
			return err
		}
		selected, err := bench.SelectExperiments(*experiment)
		if err != nil {
			return cli.Usage(err)
		}
		runs := func(name string) bool {
			return slices.ContainsFunc(selected, func(e bench.Experiment) bool { return e.Name == name })
		}
		for _, f := range [][2]string{{"sizes", "scale"}, {"iterations", "cascade"}} {
			if cli.Given(fs, f[0]) && !runs(f[1]) {
				return cli.Usage(fmt.Errorf("-%s %s: -experiment %s does not read it (only %s)", f[0], fs.Lookup(f[0]).Value, *experiment, f[1]))
			}
		}
		// core.Build checks the range too, but names Config.Levels and fails
		// only when a row reaches it: check the flag before any row runs,
		// against the vertex count the stitched generator builds, which
		// rounds a size down to whole components. Table 5 also sweeps one
		// level past -levels.
		if *levels < 0 || *levels > 30 {
			return cli.Usage(fmt.Errorf("-levels %d out of range: want 0 <= levels <= 30", *levels))
		}
		if n := builds(*vertices); n < 1<<*levels {
			return cli.Usage(fmt.Errorf("-vertices %d builds %d vertices, fewer than the %d partitions of -levels %d", *vertices, n, 1<<*levels, *levels))
		} else if n < 2<<*levels && runs("table5") {
			return cli.Usage(fmt.Errorf("-levels %d out of range for table5, which sweeps to levels+1: its %d partitions need at least as many vertices, -vertices %d builds %d", *levels, 2<<*levels, *vertices, n))
		}
		p := bench.Params{
			Scale:      bench.Scale{Vertices: *vertices, Levels: *levels, Machines: *machines, Seed: *seed, Workers: *workers},
			Iterations: *iterations,
		}
		if *sizes != "" {
			for _, f := range strings.Split(*sizes, ",") {
				n, err := strconv.Atoi(strings.TrimSpace(f))
				if err != nil || n <= 0 {
					return cli.Usage(fmt.Errorf("bad -sizes entry %q", f))
				}
				if b := builds(n); b < 1<<*levels {
					return cli.Usage(fmt.Errorf("-sizes entry %d builds %d vertices, fewer than the %d partitions of -levels %d", n, b, 1<<*levels, *levels))
				}
				p.Sizes = append(p.Sizes, n)
			}
		}
		if *faultsPath != "" {
			if p.Scale.Faults, err = fault.Load(*faultsPath); err != nil {
				return err
			}
			// Every experiment builds its own clusters of -machines machines,
			// so the file must fit that count as it stands: a join past it
			// would never be provisioned, and must not silently run fault-free.
			if err := p.Scale.Faults.Validate(*machines); err != nil {
				return fmt.Errorf("%s: %v", *faultsPath, err)
			}
		}
		if *traceOut != "" || *eventsOut != "" {
			p.Scale.Trace = trace.NewRecorder()
		}
		rec := p.Scale.Trace

		if *cpuProfile != "" {
			f, err := os.Create(*cpuProfile)
			if err != nil {
				return fmt.Errorf("cpu profile: %v", err)
			}
			if err := pprof.StartCPUProfile(f); err != nil {
				f.Close()
				return fmt.Errorf("cpu profile: %v", err)
			}
			defer func() {
				pprof.StopCPUProfile()
				if cerr := f.Close(); cerr != nil && err == nil {
					err = fmt.Errorf("cpu profile: %v", cerr)
				}
			}()
		}
		if *memProfile != "" {
			defer func() {
				runtime.GC() // settle the heap so the profile shows live objects
				if perr := cli.WriteFile(*memProfile, pprof.WriteHeapProfile); perr != nil && err == nil {
					err = fmt.Errorf("heap profile: %v", perr)
				}
			}()
		}

		report := bench.NewReport()
		for _, e := range selected {
			start := time.Now()
			rep, err := e.Run(p, stdout)
			if err != nil {
				return fmt.Errorf("%s: %v", e.Name, err)
			}
			if rep != nil {
				report.Merge(rep)
			}
			fmt.Fprintf(stdout, "[%s took %.1fs]\n\n", e.Name, time.Since(start).Seconds())
		}

		if *traceOut != "" {
			if err := cli.WriteFile(*traceOut, func(w io.Writer) error { return trace.WriteChrome(w, rec.Events()) }); err != nil {
				return fmt.Errorf("writing trace: %v", err)
			}
			fmt.Fprintf(stdout, "wrote %s (%d events)\n", *traceOut, rec.Len())
		}
		if *eventsOut != "" {
			// The bench harness runs many deployments over different topologies,
			// so the combined stream carries no single topology header; the
			// analyzer simply skips its link-utilization section.
			if err := cli.WriteFile(*eventsOut, func(w io.Writer) error { return trace.WriteEvents(w, nil, rec.Events()) }); err != nil {
				return fmt.Errorf("writing events: %v", err)
			}
			fmt.Fprintf(stdout, "wrote %s (%d events)\n", *eventsOut, rec.Len())
		}
		if *jsonOut != "" {
			if err := report.Validate(); err != nil {
				return fmt.Errorf("bench report: %v", err)
			}
			if err := bench.WriteReport(*jsonOut, report); err != nil {
				return fmt.Errorf("writing bench report: %v", err)
			}
			fmt.Fprintf(stdout, "wrote %s (%d entries)\n", *jsonOut, len(report.Entries))
		}
		return nil
	}))
}
