// surfer-metrics turns a captured raw event stream (surfer-run -events)
// into windowed time series and renders them — as a terminal sparkline
// dashboard by default, or as the deterministic series-set JSON, CSV, or
// Prometheus text exposition. The derived series are byte-identical to what
// a live collector (surfer-run -metrics) samples during the same run, so
// the dashboard, the alert engine and the autoscaler all read one set of
// numbers.
//
// Usage:
//
//	surfer-metrics -trace run.events                     # sparkline dashboard
//	surfer-metrics -trace run.events -window 0.5 -json   # series-set JSON
//	surfer-metrics -trace run.events -csv                # window-per-row CSV
//	surfer-metrics -trace run.events -prom               # Prometheus text format
//	surfer-metrics -trace run.events -rules slo.json     # evaluate SLO alerts
//	surfer-metrics -series run.series                    # re-render a series file
package main

import (
	"errors"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"

	"repro/cmd/internal/cli"
	"repro/internal/metrics"
	"repro/internal/trace"
)

func main() { os.Exit(tool(os.Stdout, os.Stderr).Run(os.Args[1:])) }

func tool(stdout, stderr io.Writer) cli.Tool {
	fs := cli.Flags("surfer-metrics", stderr)
	var (
		traceIn   = fs.String("trace", "", "raw event stream to derive series from (surfer-run -events)")
		seriesIn  = fs.String("series", "", "pre-exported series file to render (surfer-run -metrics output); alternative to -trace")
		window    = fs.Float64("window", 0, "window length in virtual seconds for -trace derivation (0 = makespan/32)")
		rulesPath = fs.String("rules", "", "JSON SLO alert rules to evaluate against the derived windows (needs -trace)")
		asJSON    = fs.Bool("json", false, "emit the deterministic series-set JSON instead of the dashboard")
		asCSV     = fs.Bool("csv", false, "emit window-per-row CSV instead of the dashboard")
		asProm    = fs.Bool("prom", false, "emit Prometheus text exposition (last-window gauges + whole-run sums) instead of the dashboard")
		match     = fs.String("match", "", "only render series whose name contains this substring")
		width     = fs.Int("width", 48, "sparkline width in columns (dashboard)")
	)
	return cli.Tool{Flags: fs,
		Check: map[string]func(string) error{"window": cli.NonNegative, "width": cli.Positive},
		// A series file's windows are fixed when it is written.
		Reads: []cli.Cond{cli.Unless("series", "window"), {Flags: []string{"rules"}, By: "trace",
			Say: "-rules needs -trace (alerts evaluate at window seals, which a flat series file no longer has)"},
			cli.Unless("json", "width"), cli.Unless("csv", "width"), cli.Unless("prom", "width")},
		Modes: []cli.Modes{{Flags: []string{"trace", "series"}, Sep: " and ", Say: "%s are alternatives; pass one"},
			{Flags: []string{"json", "csv", "prom"}, Sep: ", ", Say: "%s: alternative outputs; pass one"}},
		Body: func([]string) error {
			var set *metrics.Set
			var alerts []metrics.Alert
			var err error
			switch {
			case *traceIn != "":
				if set, alerts, err = derive(*traceIn, *window, *rulesPath); err != nil {
					return err
				}
			case *seriesIn != "":
				f, err := os.Open(*seriesIn)
				if err != nil {
					return err
				}
				set, err = metrics.ReadSet(f)
				f.Close()
				if err != nil {
					return fmt.Errorf("%s: %v", *seriesIn, err)
				}
			default:
				return cli.Usage(errors.New("pass -trace run.events (derive) or -series run.series (re-render)"))
			}

			if *match != "" {
				set.Series = slices.DeleteFunc(set.Series, func(s metrics.Series) bool { return !strings.Contains(s.Name, *match) })
			}

			switch {
			case *asJSON:
				return metrics.WriteSet(stdout, set)
			case *asCSV:
				return metrics.WriteCSV(stdout, set)
			case *asProm:
				return metrics.WriteProm(stdout, set)
			}
			metrics.WriteDashboard(stdout, set, alerts, *width)
			return nil
		}}
}

// derive folds the captured stream into windowed series, exactly as a live
// collector with the same config would have. With -window the file is
// folded as it streams by and no event is held; the automatic window is a
// fraction of the makespan, which only the whole stream tells.
func derive(path string, window float64, rulesPath string) (*metrics.Set, []metrics.Alert, error) {
	rules, err := metrics.LoadRules(rulesPath)
	if err != nil {
		return nil, nil, err
	}
	if window > 0 {
		var col *metrics.Collector
		err := trace.ScanFile(path, func(s *trace.Stream) (err error) {
			col, err = metrics.NewCollector(metrics.Config{Window: window, Topo: s.Topo.Topology(), Rules: rules})
			return err
		}, func(ev *trace.Event) error {
			col.Observe(ev)
			return col.Err()
		})
		if err != nil {
			return nil, nil, err
		}
		return col.Finish(), col.Alerts(), nil
	}

	s, err := trace.ReadFile(path)
	if err != nil {
		return nil, nil, err
	}
	if window = metrics.AutoWindow(s.Events); window <= 0 {
		return nil, nil, fmt.Errorf("%s: empty stream; pass -window explicitly", path)
	}
	set, alerts, err := metrics.FromEvents(s.Events, metrics.Config{Window: window, Topo: s.Topo.Topology(), Rules: rules})
	if err != nil {
		return nil, nil, fmt.Errorf("%s: %v", path, err)
	}
	return set, alerts, nil
}
