package bench

import (
	"reflect"
	"testing"
)

// TestMultitenantDeterministic: the experiment is a pure function of its
// scale — identical rows across repeated runs and across planning worker
// counts — and its report validates against the schema.
func TestMultitenantDeterministic(t *testing.T) {
	s := TestScale()
	var ref []MultitenantRow
	for _, workers := range []int{1, 4} {
		s.Workers = workers
		rows, err := Multitenant(s)
		if err != nil {
			t.Fatal(err)
		}
		if len(rows) != 3 {
			t.Fatalf("got %d rows, want one per policy", len(rows))
		}
		if ref == nil {
			ref = rows
			continue
		}
		if !reflect.DeepEqual(rows, ref) {
			t.Fatalf("workers=%d rows differ:\n%+v\nvs\n%+v", workers, rows, ref)
		}
	}
	for _, row := range ref {
		if row.Makespan <= 0 || row.P50 <= 0 || row.P99 < row.P50 {
			t.Errorf("%s: implausible aggregates: %+v", row.Policy, row)
		}
		if row.Jain <= 0 || row.Jain > 1 {
			t.Errorf("%s: Jain index %g outside (0,1]", row.Policy, row.Jain)
		}
		if row.Finished == 0 {
			t.Errorf("%s: no jobs finished", row.Policy)
		}
	}
	rep := FromMultitenant(ref)
	if err := rep.Validate(); err != nil {
		t.Fatalf("multitenant report fails schema validation: %v", err)
	}
	for _, e := range rep.Entries {
		if e.Experiment != "multitenant" {
			t.Errorf("entry experiment %q", e.Experiment)
		}
		for _, k := range []string{"makespan_seconds", "p50_latency_seconds", "p99_latency_seconds", "mean_wait_seconds"} {
			if _, ok := e.Metrics[k]; !ok {
				t.Errorf("entry %s missing gated metric %s", e.Case, k)
			}
		}
		if _, ok := e.Info["jain_fairness"]; !ok {
			t.Errorf("entry %s missing jain_fairness info", e.Case)
		}
	}
}
