package bench

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
)

// The versioned bench report schema: the machine-readable output of
// surfer-bench (-json) and the input of the surfer-analyze -compare
// regression gate. Metrics are the gated numbers — deterministic,
// lower-is-better quantities of the simulated cluster (virtual seconds,
// bytes, task counts). Info carries everything else (improvements,
// fairness, graph and search shape): recorded for the history, never
// gated, because it is not lower-is-better. Host wall-clock is not
// recorded here at all: benchmark/ measures it.

// ReportSchema identifies the current bench report format. The version
// bumps on any change that would make old/new reports incomparable.
const ReportSchema = "surfer-bench/v1"

// Entry is one benchmark case's record.
type Entry struct {
	// Experiment and Case identify the entry ("scale"/"nr/65536",
	// "table1"/"T2(8,2)"); Compare matches entries on the pair.
	Experiment string `json:"experiment"`
	Case       string `json:"case"`
	// Metrics are gated: deterministic and lower-is-better.
	Metrics map[string]float64 `json:"metrics"`
	// Info is ungated context.
	Info map[string]float64 `json:"info,omitempty"`
}

// Report is a bench run's full machine-readable output.
type Report struct {
	Schema  string  `json:"schema"`
	Entries []Entry `json:"entries"`
}

// NewReport returns an empty report carrying the current schema.
func NewReport() *Report { return &Report{Schema: ReportSchema} }

// Validate checks the schema marker and shape, so the CI gate rejects
// files from other tools (or other schema versions) loudly.
func (r *Report) Validate() error {
	if r.Schema != ReportSchema {
		return fmt.Errorf("bench: report schema %q, want %q", r.Schema, ReportSchema)
	}
	for i, e := range r.Entries {
		if e.Experiment == "" || e.Case == "" {
			return fmt.Errorf("bench: entry %d missing experiment/case", i)
		}
		if len(e.Metrics) == 0 {
			return fmt.Errorf("bench: entry %d (%s/%s) has no metrics", i, e.Experiment, e.Case)
		}
	}
	return nil
}

// WriteReport writes the report as indented JSON to path.
func WriteReport(path string, r *Report) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// LoadReport reads and validates a report file.
func LoadReport(path string) (*Report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r Report
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("bench: %s: %w", path, err)
	}
	if err := r.Validate(); err != nil {
		return nil, fmt.Errorf("bench: %s: %w", path, err)
	}
	return &r, nil
}

// Regression is one gated metric that got worse beyond the threshold.
type Regression struct {
	Experiment string  `json:"experiment"`
	Case       string  `json:"case"`
	Metric     string  `json:"metric"`
	Old        float64 `json:"old"`
	New        float64 `json:"new"`
	// Pct is the relative increase in percent (+Inf rendered as a large
	// number when Old is zero).
	Pct float64 `json:"pct"`
}

// Compare gates new against old: every metric present in both reports for
// the same experiment/case must not exceed the old value by more than
// thresholdPct percent. Returned regressions follow new's entry order with
// metric names sorted, so the output is deterministic.
func Compare(old, new *Report, thresholdPct float64) []Regression {
	type key struct{ exp, cs string }
	om := make(map[key]Entry, len(old.Entries))
	for _, e := range old.Entries {
		om[key{e.Experiment, e.Case}] = e
	}
	var regs []Regression
	for _, e := range new.Entries {
		oe, ok := om[key{e.Experiment, e.Case}]
		if !ok {
			continue
		}
		names := make([]string, 0, len(e.Metrics))
		for name := range e.Metrics {
			if _, ok := oe.Metrics[name]; ok {
				names = append(names, name)
			}
		}
		sort.Strings(names)
		for _, name := range names {
			ov, nv := oe.Metrics[name], e.Metrics[name]
			if nv <= ov*(1+thresholdPct/100) {
				continue
			}
			pct := 0.0
			if ov > 0 {
				pct = (nv - ov) / ov * 100
			} else {
				pct = 100 * nv // old was zero; any positive value regresses
			}
			regs = append(regs, Regression{
				Experiment: e.Experiment, Case: e.Case, Metric: name,
				Old: ov, New: nv, Pct: pct,
			})
		}
	}
	return regs
}

// ---------------------------------------------------------------- adapters

// metricsOf flattens engine-level aggregates into gated report metrics.
func metricsOf(responseSec, machineSec float64, networkBytes, diskBytes int64, tasks int) map[string]float64 {
	return map[string]float64{
		"response_seconds": responseSec,
		"machine_seconds":  machineSec,
		"network_bytes":    float64(networkBytes),
		"disk_bytes":       float64(diskBytes),
		"tasks_run":        float64(tasks),
	}
}

// FromTable1 converts partitioning-time rows (Table 1).
func FromTable1(rows []Table1Row) *Report {
	r := NewReport()
	for _, row := range rows {
		r.Entries = append(r.Entries, Entry{
			Experiment: "table1",
			Case:       row.Topology,
			Metrics: map[string]float64{
				"parmetis_seconds":  row.ParMetisSec,
				"bandwidth_seconds": row.BandwidthSec,
			},
			Info: map[string]float64{"improvement_pct": row.ImprovementPct},
		})
	}
	return r
}

// FromTables23 converts the (application, optimization level) cells behind
// Tables 2 and 3.
func FromTables23(cells []AppLevelMetrics) *Report {
	r := NewReport()
	for _, c := range cells {
		r.Entries = append(r.Entries, Entry{
			Experiment: "tables23",
			Case:       fmt.Sprintf("%s/%s", c.App, c.Level),
			Metrics: metricsOf(c.Metrics.ResponseSeconds, c.Metrics.MachineSeconds,
				c.Metrics.NetworkBytes, c.Metrics.DiskBytes, c.Metrics.TasksRun),
		})
	}
	return r
}

// Merge appends other's entries (same schema assumed).
func (r *Report) Merge(other *Report) {
	r.Entries = append(r.Entries, other.Entries...)
}
