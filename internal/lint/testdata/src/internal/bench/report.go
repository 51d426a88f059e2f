// Package bench fixture: SL004 report-schema doc-sync. The schema
// constant and wall_seconds are documented in the fixture METRICS.md;
// rank_residual (a metric-map literal key) and converged (a string-literal
// info-map index) are not — one finding each.
package bench

const ReportSchema = "surfer-bench/v1"

func entry() map[string]float64 {
	m := map[string]float64{
		"wall_seconds":  1,
		"rank_residual": 0,
	}
	m["converged"] = 1
	return m
}
