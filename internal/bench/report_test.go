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

// FuzzLoadReport: LoadReport never panics, and a report it accepts goes
// through WriteReport and LoadReport and comes back equal — up to an empty
// Info, which the file format omits.
//
//	go test -run '^$' -fuzz FuzzLoadReport -fuzztime 30s ./internal/bench
func FuzzLoadReport(f *testing.F) {
	for _, name := range []string{"BENCH_scale.json", "BENCH_multitenant.json"} {
		data, err := os.ReadFile(filepath.Join("..", "..", name))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Add([]byte(`{"schema":"surfer-bench/v1","entries":[{"experiment":"e","case":"c","metrics":{"m":-0,"n":1e308},"info":{}}]}`))
	f.Add([]byte(`{"Schema":"surfer-bench/v1","entries":null,"extra":[1]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		in, out := filepath.Join(dir, "in.json"), filepath.Join(dir, "out.json")
		if err := os.WriteFile(in, data, 0o644); err != nil {
			t.Fatal(err)
		}
		r, err := LoadReport(in)
		if err != nil {
			return
		}
		if err := WriteReport(out, r); err != nil {
			t.Fatalf("an accepted report does not write: %v", err)
		}
		again, err := LoadReport(out)
		if err != nil {
			t.Fatalf("the written report is refused: %v", err)
		}
		for i := range r.Entries {
			if len(r.Entries[i].Info) == 0 {
				r.Entries[i].Info = nil
			}
		}
		if !reflect.DeepEqual(r, again) {
			t.Fatalf("round trip changed the report:\n%+v\n%+v", r, again)
		}
	})
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
