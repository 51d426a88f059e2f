package surfer

import (
	"bytes"
	"encoding/json"
	"testing"
)

// traceRun executes the acceptance workload of the observability layer: a
// 4-partition PageRank on the heterogeneous topology T3, traced, with the
// given worker-pool size. It returns the Chrome export bytes, the recorded
// stream's breakdown totals, and the run metrics.
func traceRun(t *testing.T, workers int) ([]byte, *TraceBreakdown, Metrics) {
	t.Helper()
	g := Social(DefaultSocial(2048, 7))
	rec := NewTraceRecorder()
	sys, err := Build(Config{
		Graph: g, Topology: NewT3(8, 7), Levels: 2, Seed: 7,
		Workers: workers, Trace: rec,
	})
	if err != nil {
		t.Fatal(err)
	}
	prog := &pagerank{g: g, n: float64(g.NumVertices())}
	_, m, err := RunPropagation(sys, sys.NewRunner(), prog, 3,
		PropagationOptions{LocalPropagation: true, LocalCombination: true})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, rec.Events()); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), SummarizeTrace(rec.Events()), m
}

// TestTraceAcceptance is the PR's acceptance criterion: the traced T3
// PageRank run produces valid Chrome trace_event JSON whose per-machine
// egress/ingress accounting sums to the engine's network totals, and the
// exported bytes are identical for every compute worker count.
func TestTraceAcceptance(t *testing.T) {
	json1, b1, m1 := traceRun(t, 1)

	// The export parses as Chrome trace_event JSON.
	var tf struct {
		TraceEvents []struct {
			Ph  string  `json:"ph"`
			Ts  float64 `json:"ts"`
			Pid int     `json:"pid"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(json1, &tf); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	if len(tf.TraceEvents) == 0 {
		t.Fatal("trace is empty")
	}

	// Per-machine byte accounting reconciles with engine.Metrics.
	tot := b1.Totals()
	if tot.EgressBytes != m1.NetworkBytes {
		t.Fatalf("trace egress bytes = %d, metrics network bytes = %d",
			tot.EgressBytes, m1.NetworkBytes)
	}
	if tot.IngressBytes != m1.NetworkBytes {
		t.Fatalf("trace ingress bytes = %d, metrics network bytes = %d",
			tot.IngressBytes, m1.NetworkBytes)
	}
	// Every transfer occupies one egress and one ingress NIC for the same
	// interval, so the cluster-wide busy times agree.
	if tot.EgressBusySeconds != tot.IngressBusySeconds {
		t.Fatalf("egress busy %v != ingress busy %v",
			tot.EgressBusySeconds, tot.IngressBusySeconds)
	}
	if tot.TasksRun != m1.TasksRun {
		t.Fatalf("trace tasks = %d, metrics tasks = %d", tot.TasksRun, m1.TasksRun)
	}

	// Determinism: byte-identical export for every worker count.
	for _, workers := range []int{4, 8} {
		jsonN, _, mN := traceRun(t, workers)
		if !bytes.Equal(json1, jsonN) {
			t.Fatalf("trace with Workers=%d differs from Workers=1", workers)
		}
		if mN != m1 {
			t.Fatalf("metrics with Workers=%d differ: %+v vs %+v", workers, mN, m1)
		}
	}
}
