// surfer-run executes one of the paper's six benchmark applications on a
// graph over the simulated cluster, with either primitive, and prints the
// response time, total machine time, and I/O metrics.
//
// Usage:
//
//	surfer-run -graph graph.srfg -app nr -primitive propagation -opt o4
//	surfer-run -graph graph.srfg -app tfl -primitive mapreduce
package main

import (
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"repro/cmd/internal/cli"
	"repro/internal/apps"
	"repro/internal/bench"
	"repro/internal/cluster"
	"repro/internal/engine"
	"repro/internal/fault"
	"repro/internal/graph"
	"repro/internal/metrics"
	"repro/internal/trace"
)

func main() { os.Exit(tool(os.Stdout, os.Stderr).Run(os.Args[1:])) }

func tool(stdout, stderr io.Writer) cli.Tool {
	fs := cli.Flags("surfer-run", stderr)
	var (
		graphPath  = fs.String("graph", "graph.srfg", "input graph file")
		appName    = fs.String("app", "nr", "application: vdd, rs, nr, rlg, tc, tfl, cc, sssp")
		primitive  = fs.String("primitive", "propagation", "propagation or mapreduce")
		optLevel   = fs.String("opt", "o4", "optimization level o1..o4 (propagation)")
		machines   = fs.Int("machines", 32, "number of machines")
		topoKind   = fs.String("topology", "t1", "topology: t1, t2, t3")
		pods       = fs.Int("pods", 2, "pods (t2)")
		levels     = fs.Int("levels", 6, "log2 of partition count")
		seed       = fs.Int64("seed", 42, "random seed")
		workers    = fs.Int("workers", 0, "worker pool size for partitioning and compute (0 = GOMAXPROCS, 1 = serial); results are identical for every value")
		traceOut   = fs.String("trace", "", "write a Chrome trace_event JSON timeline of the run to this file (open in chrome://tracing or Perfetto)")
		eventsOut  = fs.String("events", "", "write the raw event stream (with topology header) to this file for surfer-analyze / surfer-trace -breakdown")
		failSpec   = fs.String("fail", "", "comma-separated machine deaths as machine@time (virtual seconds), e.g. 2@1.5,7@3, or a .json fault-schedule file (kills, link faults, slowdowns, joins, drains); failed partitions fail over to replicas")
		heartbeat  = fs.Float64("heartbeat", 0, "failure-detection latency in virtual seconds (0 = engine default, 1s)")
		metricsOut = fs.String("metrics", "", "sample windowed time series live during the run and write the series set to this file (surfer-metrics reads it, or derives the identical set from -events output)")
		metricsWin = fs.Float64("metrics-window", 0.25, "metrics window length in virtual seconds")
		rulesPath  = fs.String("rules", "", "JSON SLO alert rules evaluated live at every window seal; fired/resolved alerts land in the event stream (needs -metrics)")
	)
	return cli.Tool{Flags: fs,
		Values: map[string][]string{"primitive": {"propagation", "mapreduce"}},
		Check: map[string]func(string) error{
			"app":      func(s string) error { _, err := apps.ByName(s, 0); return err },
			"opt":      cli.Parse(parseOpt),
			"workers":  cli.NonNegative,
			"fail":     cli.Parse(parseKills),
			"topology": func(s string) error { _, err := cluster.ByName(s, 1, 1, 1, 0); return err },
		},
		Reads: []cli.Cond{cli.Only("opt", "primitive", "propagation"), cli.Only("pods", "topology", "t2"), // ByName reads it only for t2
			{Flags: []string{"metrics-window"}, By: "metrics", Say: "%s needs -metrics (it sizes the live series' windows)"},
			{Flags: []string{"rules"}, By: "metrics", Say: "-rules needs -metrics (rules evaluate against the live series)"}},
		Body: func([]string) error {
			g, err := graph.Load(*graphPath)
			if err != nil {
				return fmt.Errorf("loading graph %s: %v", *graphPath, err)
			}
			topo, err := cluster.ByName(*topoKind, *machines, *pods, 1, *seed)
			if err != nil {
				return err
			}
			faults, _ := parseKills(*failSpec)
			if strings.HasSuffix(*failSpec, ".json") {
				if faults, err = fault.Load(*failSpec); err != nil {
					return err
				}
				if topo, err = faults.RunInputs(topo); err != nil {
					return fmt.Errorf("%s: %v", *failSpec, err)
				}
			}
			app, _ := apps.ByName(*appName, 0)
			lvl, _ := parseOpt(*optLevel) // propagation's; MapReduce is layout-unaware

			var rec *trace.Recorder
			if *traceOut != "" || *eventsOut != "" || *metricsOut != "" {
				rec = trace.NewRecorder()
			}
			var col *metrics.Collector
			if *metricsOut != "" {
				rules, err := metrics.LoadRules(*rulesPath)
				if err != nil {
					return err
				}
				col, err = metrics.NewCollector(metrics.Config{Window: *metricsWin, Topo: topo, Rules: rules})
				if err != nil {
					return err
				}
				col.Attach(rec)
			}
			d, err := bench.NewDeploymentFor(bench.Scale{
				Vertices: g.NumVertices(), Levels: *levels, Machines: topo.NumMachines(),
				Seed: *seed, Workers: *workers, Trace: rec,
				Heartbeat: *heartbeat, Faults: faults,
			}, topo, g)
			if err != nil {
				return err
			}

			iterations := "to convergence"
			if n := app.Iterations(); n > 0 {
				iterations = fmt.Sprintf("%d iteration(s)", n)
			}
			fmt.Fprintf(stdout, "graph: %d vertices, %d edges; cluster: %s; app: %s (%s)\n",
				g.NumVertices(), g.NumEdges(), topo, app.Name(), iterations)
			var m engine.Metrics
			if *primitive == "propagation" {
				if m, err = d.RunApp(app, lvl); err != nil {
					return err
				}
				fmt.Fprintf(stdout, "primitive: propagation (%v)\n", lvl)
			} else {
				if m, err = d.RunAppMR(app); err != nil {
					return err
				}
				fmt.Fprintln(stdout, "primitive: mapreduce")
			}
			fmt.Fprintf(stdout, "response time:      %.4f s\n", m.ResponseSeconds)
			fmt.Fprintf(stdout, "total machine time: %.4f s\n", m.MachineSeconds)
			fmt.Fprintf(stdout, "network I/O:        %.2f MB\n", float64(m.NetworkBytes)/1e6)
			fmt.Fprintf(stdout, "disk I/O:           %.2f MB\n", float64(m.DiskBytes)/1e6)
			// Membership changes and live migrations, only when the run had any
			// (the common fault-free run stays four lines).
			if m.Joins != 0 || m.Drains != 0 || m.Migrations != 0 {
				fmt.Fprintf(stdout, "elasticity:         %d join(s), %d drain(s), %d migration(s) (%.2f MB)\n",
					m.Joins, m.Drains, m.Migrations, float64(m.MigrationBytes)/1e6)
			}

			if *metricsOut != "" {
				if err := col.Err(); err != nil {
					return err
				}
				// Finish seals the remaining windows — final alert transitions are
				// emitted here, so it must precede the trace/event writers.
				set := col.Finish()
				if err := cli.WriteFile(*metricsOut, func(w io.Writer) error { return metrics.WriteSet(w, set) }); err != nil {
					return fmt.Errorf("writing metrics: %v", err)
				}
				fired := 0
				for _, al := range col.Alerts() {
					if !al.Resolved {
						fired++
					}
				}
				fmt.Fprintf(stdout, "metrics:            %s (%d series × %d windows, %d alert(s) fired)\n",
					*metricsOut, len(set.Series), set.Windows, fired)
			}
			if *traceOut != "" {
				if err := cli.WriteFile(*traceOut, func(w io.Writer) error { return trace.WriteChrome(w, rec.Events()) }); err != nil {
					return fmt.Errorf("writing trace: %v", err)
				}
				fmt.Fprintf(stdout, "trace:              %s (%d events)\n", *traceOut, rec.Len())
			}
			if *eventsOut != "" {
				err := cli.WriteFile(*eventsOut, func(w io.Writer) error { return trace.WriteEvents(w, trace.TopoOf(topo), rec.Events()) })
				if err != nil {
					return fmt.Errorf("writing events: %v", err)
				}
				fmt.Fprintf(stdout, "events:             %s (%d events)\n", *eventsOut, rec.Len())
			}
			return nil
		}}
}

// parseKills decodes the -fail flag other than a fault file: a
// comma-separated list of machine@time entries, each scheduling a permanent
// machine death at a virtual time.
func parseKills(spec string) (*fault.Schedule, error) {
	if spec == "" || strings.HasSuffix(spec, ".json") {
		return nil, nil
	}
	out := &fault.Schedule{}
	for _, entry := range strings.Split(spec, ",") {
		mStr, tStr, ok := strings.Cut(strings.TrimSpace(entry), "@")
		if !ok {
			return nil, fmt.Errorf("bad entry %q (want machine@time, e.g. 2@1.5)", entry)
		}
		m, err := strconv.Atoi(mStr)
		if err != nil {
			return nil, fmt.Errorf("bad machine in entry %q: %v", entry, err)
		}
		at, err := strconv.ParseFloat(tStr, 64)
		if err != nil {
			return nil, fmt.Errorf("bad time in entry %q: %v", entry, err)
		}
		out.Kills = append(out.Kills, fault.Kill{Machine: cluster.MachineID(m), At: at})
	}
	return out, nil
}

func parseOpt(s string) (bench.OptLevel, error) {
	for _, lvl := range []bench.OptLevel{bench.O1, bench.O2, bench.O3, bench.O4} {
		if strings.EqualFold(s, lvl.String()) {
			return lvl, nil
		}
	}
	return 0, fmt.Errorf("unknown optimization level %q (want o1..o4)", s)
}
