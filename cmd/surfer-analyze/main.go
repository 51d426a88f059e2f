// surfer-analyze turns raw event streams (surfer-run -events /
// surfer-bench -events) into critical-path reports, diffs two runs, and
// gates bench reports against a baseline.
//
// Usage:
//
//	surfer-analyze -trace run.events [-json]
//	surfer-analyze -autoscale run.events [-json]
//	surfer-analyze -diff a.events b.events [-json]
//	surfer-analyze -compare old.json new.json [-threshold 5%]
//
// -trace reconstructs the causal DAG from one stream, extracts the
// critical path, and attributes every second of the makespan to a blame
// category (see docs/METRICS.md §6). -diff analyzes two streams of the
// same workload and reports per-stage / per-category deltas plus the
// regressing links and machines. -compare checks a surfer-bench -json
// report against a baseline and exits nonzero when any gated metric
// regressed past the threshold, which makes it usable as a CI gate.
package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"repro/cmd/internal/cli"
	"repro/internal/analyze"
	"repro/internal/bench"
	"repro/internal/trace"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := cli.Flags("surfer-analyze", stderr)
	var (
		traceIn   = fs.String("trace", "", "raw event stream to analyze (from surfer-run -events)")
		doDiff    = fs.Bool("diff", false, "diff two raw event streams given as positional args: A.events B.events")
		doCompare = fs.Bool("compare", false, "gate a bench report against a baseline, positional args: old.json new.json")
		threshold = fs.String("threshold", "5%", "regression threshold for -compare (percent; trailing % optional)")
		autoscale = fs.String("autoscale", "", "raw event stream (with topology header) to run the utilization-driven autoscaling policy on; prints the recommended joins/drains and, with -json, a fault-schedule file ready for surfer-run -fail")
		asJSON    = fs.Bool("json", false, "emit the report as JSON instead of text")
	)
	return cli.Run(fs, args, stderr, func(files []string) error {
		var modes []string
		for _, name := range []string{"trace", "autoscale", "diff", "compare"} {
			if cli.Given(fs, name) {
				modes = append(modes, "-"+name)
			}
		}
		switch {
		case len(modes) > 1:
			return cli.Usage(fmt.Errorf("%s: one mode per call", strings.Join(modes, " and ")))
		case cli.Given(fs, "threshold") && !*doCompare:
			return cli.Usage(fmt.Errorf("-threshold %s: only -compare reads it", *threshold))
		case *asJSON && *doCompare:
			return cli.Usage(errors.New("-json: -compare does not read it (its verdict is text)"))
		case len(files) > 0 && *traceIn+*autoscale != "":
			return cli.Usage(fmt.Errorf("%s takes its stream as its value, not as positional args: %s", modes[0], strings.Join(files, " ")))
		case *doCompare:
			if len(files) != 2 {
				return cli.Usage(errors.New("-compare wants two positional args: old.json new.json"))
			}
			pct, err := parseThreshold(*threshold)
			if err != nil {
				return err
			}
			return runCompare(stdout, files[0], files[1], pct)
		case *doDiff:
			if len(files) != 2 {
				return cli.Usage(errors.New("-diff wants two positional args: A.events B.events"))
			}
			a, err := analyzeFile(files[0])
			if err != nil {
				return err
			}
			b, err := analyzeFile(files[1])
			if err != nil {
				return err
			}
			d := analyze.Diff(a, b)
			if *asJSON {
				return analyze.WriteDiffJSON(stdout, d)
			}
			return analyze.WriteDiffText(stdout, d)
		case *autoscale != "":
			return runAutoscale(stdout, *autoscale, *asJSON)
		case *traceIn != "":
			r, err := analyzeFile(*traceIn)
			if err != nil {
				return err
			}
			if *asJSON {
				return analyze.WriteJSON(stdout, r)
			}
			return analyze.WriteText(stdout, r)
		}
		return cli.Usage(errors.New("nothing to do: want -trace f, -autoscale f, -diff a b, or -compare old new"))
	})
}

// runAutoscale applies the default autoscaling policy to an event stream.
// With -json it emits the plan's fault-schedule file (the format surfer-run
// -fail consumes), so recommendation → replay is one pipe.
func runAutoscale(w io.Writer, path string, asJSON bool) error {
	s, err := trace.ReadFile(path)
	if err != nil {
		return err
	}
	if s.Topo == nil {
		return fmt.Errorf("%s: no topology header (write the stream with surfer-run -events, not surfer-bench)", path)
	}
	plan, err := analyze.Autoscale(s.Events, s.Topo.Topology())
	if err != nil {
		return fmt.Errorf("%s: %v", path, err)
	}
	if asJSON {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(plan.Schedule())
	}
	fmt.Fprintf(w, "autoscale: %d window(s), %d join(s), %d drain(s) recommended\n",
		len(plan.Windows), len(plan.Joins), len(plan.Drains))
	for _, win := range plan.Windows {
		state := ""
		if win.Saturated {
			state = "  SATURATED"
		} else if win.Idle {
			state = "  idle"
		}
		fmt.Fprintf(w, "  %-12s [%8.4f, %8.4f]  max level-0 util %5.1f%%%s\n",
			win.Job, win.Start, win.End, 100*win.MaxLevel0Util, state)
	}
	for _, j := range plan.Joins {
		fmt.Fprintf(w, "  join machine %d at %.4f\n", j.Machine, j.At)
	}
	for _, d := range plan.Drains {
		fmt.Fprintf(w, "  drain machine %d at %.4f (deadline %.4f)\n", d.Machine, d.At, d.Deadline)
	}
	return nil
}

// analyzeFile loads a raw event stream and runs the critical-path
// analysis. A topology header in the stream enables the link-utilization
// section; without one the report simply omits it.
func analyzeFile(path string) (*analyze.Report, error) {
	s, err := trace.ReadFile(path)
	if err != nil {
		return nil, err
	}
	r, err := analyze.Analyze(s.Events, s.Topo.Topology())
	if err != nil {
		return nil, fmt.Errorf("%s: %v", path, err)
	}
	return r, nil
}

// runCompare loads two bench reports and fails when any gated metric in new
// exceeds old by more than pct percent. The verdict, either way, is the
// tool's output.
func runCompare(w io.Writer, oldPath, newPath string, pct float64) error {
	old, err := bench.LoadReport(oldPath)
	if err != nil {
		return err
	}
	cur, err := bench.LoadReport(newPath)
	if err != nil {
		return err
	}
	regs := bench.Compare(old, cur, pct)
	if len(regs) == 0 {
		fmt.Fprintf(w, "compare: OK (%d entries, threshold %.1f%%)\n", len(cur.Entries), pct)
		return nil
	}
	for _, r := range regs {
		fmt.Fprintf(w, "REGRESSION %s/%s %s: %.6f -> %.6f (+%.1f%%)\n",
			r.Experiment, r.Case, r.Metric, r.Old, r.New, r.Pct)
	}
	fmt.Fprintf(w, "compare: %d regression(s) past %.1f%% threshold\n", len(regs), pct)
	return cli.Failed
}

// parseThreshold accepts "5", "5%", "2.5%".
func parseThreshold(s string) (float64, error) {
	s = strings.TrimSuffix(strings.TrimSpace(s), "%")
	v, err := strconv.ParseFloat(s, 64)
	if err != nil || v < 0 {
		return 0, fmt.Errorf("bad -threshold %q (want a percentage like 5%%)", s)
	}
	return v, nil
}
