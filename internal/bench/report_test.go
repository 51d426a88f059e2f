package bench

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

func sampleReport() *Report {
	r := NewReport()
	r.Entries = append(r.Entries,
		Entry{
			Experiment: "scale", Case: "nr/65536",
			Metrics: map[string]float64{"response_seconds": 2.0, "network_bytes": 1e6},
			Info:    map[string]float64{"edges": 3.5},
		},
		Entry{
			Experiment: "tables23", Case: "NR/O4",
			Metrics: map[string]float64{"response_seconds": 1.0, "tasks_run": 64},
		},
	)
	return r
}

// TestReportRoundTrip: WriteReport → LoadReport preserves the report, and
// Load rejects files without the schema marker.
func TestReportRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "bench.json")
	r := sampleReport()
	if err := WriteReport(path, r); err != nil {
		t.Fatal(err)
	}
	got, err := LoadReport(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(r, got) {
		t.Fatalf("round trip changed the report:\n%+v\n%+v", r, got)
	}

	bad := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(bad, []byte(`{"schema":"other/v9","entries":[]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadReport(bad); err == nil {
		t.Fatal("LoadReport accepted a foreign schema")
	}
}

// TestCompare: within-threshold drift passes, past-threshold regression is
// reported (the surfer-analyze -compare exit gate rides on this), improved
// or equal metrics never trip, and Info is ignored.
func TestCompare(t *testing.T) {
	old := sampleReport()

	same := sampleReport()
	if regs := Compare(old, same, 5); len(regs) != 0 {
		t.Fatalf("identical reports regressed: %+v", regs)
	}

	drift := sampleReport()
	drift.Entries[0].Metrics["response_seconds"] = 2.08 // +4%, under 5%
	drift.Entries[0].Info["edges"] = 99                 // Info is never gated
	if regs := Compare(old, drift, 5); len(regs) != 0 {
		t.Fatalf("within-threshold drift regressed: %+v", regs)
	}

	regressed := sampleReport()
	regressed.Entries[0].Metrics["response_seconds"] = 2.2 // +10%
	regressed.Entries[1].Metrics["tasks_run"] = 80         // +25%
	regs := Compare(old, regressed, 5)
	if len(regs) != 2 {
		t.Fatalf("want 2 regressions, got %+v", regs)
	}
	if regs[0].Metric != "response_seconds" || regs[1].Metric != "tasks_run" {
		t.Fatalf("unexpected regression order: %+v", regs)
	}
	if regs[0].Pct < 9.9 || regs[0].Pct > 10.1 {
		t.Fatalf("bad pct: %+v", regs[0])
	}

	improved := sampleReport()
	improved.Entries[0].Metrics["response_seconds"] = 1.5
	if regs := Compare(old, improved, 5); len(regs) != 0 {
		t.Fatalf("improvement regressed: %+v", regs)
	}
}
