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
	"flag"
	"fmt"
	"log"
	"os"
	"strings"

	"repro/internal/cluster"
	"repro/internal/metrics"
	"repro/internal/trace"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("surfer-metrics: ")
	var (
		traceIn   = flag.String("trace", "", "raw event stream to derive series from (surfer-run -events)")
		seriesIn  = flag.String("series", "", "pre-exported series file to render (surfer-run -metrics output); alternative to -trace")
		window    = flag.Float64("window", 0, "window length in virtual seconds for -trace derivation (0 = makespan/32)")
		rulesPath = flag.String("rules", "", "JSON SLO alert rules to evaluate against the derived windows (needs -trace)")
		asJSON    = flag.Bool("json", false, "emit the deterministic series-set JSON instead of the dashboard")
		asCSV     = flag.Bool("csv", false, "emit window-per-row CSV instead of the dashboard")
		asProm    = flag.Bool("prom", false, "emit Prometheus text exposition (last-window gauges + whole-run sums) instead of the dashboard")
		match     = flag.String("match", "", "only render series whose name contains this substring")
		width     = flag.Int("width", 48, "sparkline width in columns (dashboard)")
	)
	flag.Parse()

	var set *metrics.Set
	var alerts []metrics.Alert
	switch {
	case *traceIn != "" && *seriesIn != "":
		log.Fatal("-trace and -series are alternatives; pass one")
	case *traceIn != "":
		set, alerts = derive(*traceIn, *window, *rulesPath)
	case *seriesIn != "":
		if *rulesPath != "" {
			log.Fatal("-rules needs -trace (alerts evaluate at window seals, which a flat series file no longer has)")
		}
		f, err := os.Open(*seriesIn)
		if err != nil {
			log.Fatal(err)
		}
		set, err = metrics.ReadSet(f)
		f.Close()
		if err != nil {
			log.Fatalf("%s: %v", *seriesIn, err)
		}
	default:
		log.Fatal("pass -trace run.events (derive) or -series run.series (re-render)")
	}

	if *match != "" {
		kept := set.Series[:0]
		for _, s := range set.Series {
			if strings.Contains(s.Name, *match) {
				kept = append(kept, s)
			}
		}
		set.Series = kept
	}

	switch {
	case *asJSON:
		must(metrics.WriteSet(os.Stdout, set))
	case *asCSV:
		must(metrics.WriteCSV(os.Stdout, set))
	case *asProm:
		must(metrics.WriteProm(os.Stdout, set))
	default:
		dashboard(set, alerts, *width)
	}
}

// derive folds the captured stream into windowed series, exactly as a live
// collector with the same config would have. With -window the file is
// folded as it streams by and no event is held; the automatic window is a
// fraction of the makespan, which only the whole stream tells.
func derive(path string, window float64, rulesPath string) (*metrics.Set, []metrics.Alert) {
	var rules *metrics.RuleSet
	if rulesPath != "" {
		data, err := os.ReadFile(rulesPath)
		if err != nil {
			log.Fatalf("reading rules: %v", err)
		}
		if rules, err = metrics.ParseRules(data); err != nil {
			log.Fatal(err)
		}
	}
	config := func(s *trace.Stream) metrics.Config {
		cfg := metrics.Config{Window: window, Rules: rules}
		if s.Topo != nil {
			cfg.Topo = cluster.NewTopologyFromMatrix(s.Topo.Name, s.Topo.Bandwidth)
		}
		return cfg
	}
	f, err := os.Open(path)
	if err != nil {
		log.Fatal(err)
	}
	defer f.Close()

	if window > 0 {
		var col *metrics.Collector
		err := trace.ScanEvents(f, func(s *trace.Stream) (err error) {
			col, err = metrics.NewCollector(config(s))
			return err
		}, func(ev *trace.Event) error {
			col.Observe(*ev)
			return nil
		})
		if err != nil {
			log.Fatalf("%s: %v", path, err)
		}
		return col.Finish(), col.Alerts()
	}

	s, err := trace.ReadEvents(f)
	if err != nil {
		log.Fatalf("%s: %v", path, err)
	}
	// Auto-size to makespan/32. The stream clock (max Time) is the
	// makespan; span End fields are not used because a drain's End
	// carries its deadline, which can lie far past the run.
	makespan := 0.0
	for i := range s.Events {
		if s.Events[i].Time > makespan {
			makespan = s.Events[i].Time
		}
	}
	if makespan <= 0 {
		log.Fatalf("%s: empty stream; pass -window explicitly", path)
	}
	window = makespan / 32
	set, alerts, err := metrics.FromEvents(s.Events, config(s))
	if err != nil {
		log.Fatalf("%s: %v", path, err)
	}
	return set, alerts
}

// dashboard renders one sparkline row per series plus an alert transcript.
func dashboard(set *metrics.Set, alerts []metrics.Alert, width int) {
	fmt.Printf("%d series × %d windows of %gs\n", len(set.Series), set.Windows, set.Window)
	nameW := 0
	for i := range set.Series {
		if n := len(set.Series[i].Name); n > nameW {
			nameW = n
		}
	}
	for i := range set.Series {
		s := &set.Series[i]
		max, last := 0.0, 0.0
		for _, v := range s.Values {
			if v > max {
				max = v
			}
		}
		if n := len(s.Values); n > 0 {
			last = s.Values[n-1]
		}
		fmt.Printf("  %-*s  %s  max %-10.4g last %.4g\n",
			nameW, s.Name, metrics.Sparkline(s.Values, width), max, last)
	}
	if len(alerts) == 0 {
		return
	}
	fmt.Printf("alerts (%d transition(s)):\n", len(alerts))
	for _, al := range alerts {
		state := "FIRED"
		if al.Resolved {
			state = "resolved"
		}
		fmt.Printf("  %-8s %s@%s  window %d (t=%.4g)  value %.4g\n",
			state, al.Rule, al.Series, al.Window, al.Time, al.Value)
	}
}

func must(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
