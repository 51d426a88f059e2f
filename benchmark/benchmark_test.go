package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/graph"
)

func TestMedianAndQuartiles(t *testing.T) {
	for _, tc := range []struct {
		xs         []float64
		med        float64
		q1, q2, q3 float64 // Python: statistics.quantiles(xs, n=4)
	}{
		{xs: []float64{3, 1, 2}, med: 2, q1: 1, q2: 2, q3: 3},
		{xs: []float64{4, 1, 3, 2}, med: 2.5, q1: 1.25, q2: 2.5, q3: 3.75},
		{xs: []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, med: 5.5, q1: 2.75, q2: 5.5, q3: 8.25},
		{xs: []float64{10, 20}, med: 15, q1: 7.5, q2: 15, q3: 22.5},
		{xs: []float64{1.0, 1.1, 1.2, 1.3, 5.0}, med: 1.2, q1: 1.05, q2: 1.2, q3: 3.15},
	} {
		if got := median(tc.xs); math.Abs(got-tc.med) > 1e-12 {
			t.Errorf("median(%v) = %v, want %v", tc.xs, got, tc.med)
		}
		q1, q2, q3 := quartiles(tc.xs)
		if math.Abs(q1-tc.q1) > 1e-12 || math.Abs(q2-tc.q2) > 1e-12 || math.Abs(q3-tc.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", tc.xs, q1, q2, q3, tc.q1, tc.q2, tc.q3)
		}
	}
	if median(nil) != 0 {
		t.Error("median of nothing should be 0")
	}
	if got := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); math.Abs(got-1) > 1e-12 {
		t.Errorf("spread = %v, want 1 (5.5 between the quartiles over a median of 5.5)", got)
	}
}

func TestAmdahlSerialFraction(t *testing.T) {
	for _, tc := range []struct {
		speedup float64
		n       int
		want    float64
	}{
		{speedup: 4, n: 4, want: 0},     // perfect scaling: nothing serial
		{speedup: 1, n: 4, want: 1},     // no gain: all serial
		{speedup: 1.6, n: 4, want: 0.5}, // 1/(0.5+0.5/4)
		{speedup: 4.0 / 3, n: 2, want: 0.5},
		{speedup: 2.5, n: 2, want: 0}, // noise above the worker count clamps
		{speedup: 0.9, n: 2, want: 1}, // a slowdown clamps
		{speedup: 3, n: 1, want: 1},   // one worker: nothing ran in parallel
	} {
		if got := amdahlSerialFraction(tc.speedup, tc.n); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("amdahlSerialFraction(%v, %d) = %v, want %v", tc.speedup, tc.n, got, tc.want)
		}
	}
}

func TestWorseBy(t *testing.T) {
	if got := worseBy(10, 11, "lower"); math.Abs(got-0.1) > 1e-12 {
		t.Errorf("lower-is-better 10 -> 11: %v, want 0.1", got)
	}
	if got := worseBy(10, 11, "higher"); math.Abs(got+0.1) > 1e-12 {
		t.Errorf("higher-is-better 10 -> 11: %v, want -0.1", got)
	}
}

func TestSelfSeconds(t *testing.T) {
	sp := func(id, parent int, start, end float64) span {
		return span{ID: id, Parent: parent, Start: start, End: end}
	}
	for _, tc := range []struct {
		name  string
		spans []span
		want  []float64
	}{
		{"no children", []span{sp(0, -1, 0, 10)}, []float64{10}},
		{"siblings", []span{sp(0, -1, 0, 10), sp(1, 0, 1, 3), sp(2, 0, 5, 9)}, []float64{4, 2, 4}},
		{"nested", []span{sp(0, -1, 0, 10), sp(1, 0, 2, 8), sp(2, 1, 3, 4)}, []float64{4, 5, 1}},
		{"overlapping children count once", []span{sp(0, -1, 0, 10), sp(1, 0, 1, 6), sp(2, 0, 4, 8)}, []float64{3, 5, 4}},
		{"child contained in a sibling", []span{sp(0, -1, 0, 10), sp(1, 0, 1, 9), sp(2, 0, 3, 4)}, []float64{2, 8, 1}},
		{"child clipped to its parent", []span{sp(0, -1, 2, 6), sp(1, 0, 0, 3), sp(2, 0, 5, 9)}, []float64{2, 3, 4}},
	} {
		got := selfSeconds(tc.spans)
		for i := range tc.want {
			if math.Abs(got[i]-tc.want[i]) > 1e-12 {
				t.Errorf("%s: self times %v, want %v", tc.name, got, tc.want)
				break
			}
		}
	}
}

func TestTracerGroupsByRepetition(t *testing.T) {
	tr := newTracer(time.Now())
	work := func() error { time.Sleep(time.Millisecond); return nil }
	for _, rep := range []int{-1, 0, 1, 2} {
		tr.setRep(rep)
		tr.span("rep", func() error { return tr.span("layer", work) })
		tr.count("events", 7)
	}
	if got := len(tr.byRep("layer")); got != 3 {
		t.Errorf("byRep keeps %d groups, want 3 (the warm-up is left out)", got)
	}
	if tr.seconds("layer") < 0.001 || tr.seconds("rep") > tr.seconds("layer") {
		t.Errorf("layer %v s, rep self %v s: the child's time should leave the parent's self time", tr.seconds("layer"), tr.seconds("rep"))
	}
	if v, exact := tr.counter("events"); v != 7 || !exact {
		t.Errorf("counter = %v exact %v, want 7 true", v, exact)
	}
	tr.setRep(3)
	tr.count("events", 8)
	if _, exact := tr.counter("events"); exact {
		t.Error("a counter that changed between repetitions must not read as exact")
	}
	var off *tracer
	if err := off.span("x", work); err != nil || off.seconds("x") != 0 {
		t.Error("a nil tracer must run the function and record nothing")
	}
}

func TestComparers(t *testing.T) {
	nan := math.NaN()
	if !floatsWithin([]float64{1, 2}, []float64{1, 2 + 1e-13}, 1e-12) {
		t.Error("floats within tolerance must compare equal")
	}
	for _, bad := range [][2][]float64{
		{{1, 2}, {1, 2 + 1e-11}},
		{{1, 2}, {1}},
		{{1, nan}, {1, nan}},
	} {
		if floatsWithin(bad[0], bad[1], 1e-12) {
			t.Errorf("floatsWithin(%v, %v) must fail", bad[0], bad[1])
		}
	}
	if !histEqual(map[int]int64{1: 2, 3: 4}, map[int]int64{3: 4, 1: 2}) {
		t.Error("equal histograms")
	}
	if histEqual(map[int]int64{1: 2, 3: 0}, map[int]int64{1: 2, 4: 0}) {
		t.Error("histograms with different keys must differ even when the counts are zero")
	}
	a := [][]graph.VertexID{{1, 2}, nil, {3}}
	if !listsEqual(a, [][]graph.VertexID{{1, 2}, {}, {3}}) {
		t.Error("a nil and an empty list are the same list")
	}
	if listsEqual(a, [][]graph.VertexID{{1, 2}, nil, {4}}) || listsEqual(a, a[:2]) {
		t.Error("different lists must differ")
	}
	for _, tc := range []struct {
		got, want any
		equal     bool
	}{
		{[]float64{1}, []float64{1}, true},
		{[]uint8{0, 1}, []uint8{0, 1}, true},
		{[]uint8{0, 1}, []uint8{1, 1}, false},
		{int64(5), int64(5), true},
		{int64(5), int64(6), false},
		{[]uint8{5}, int64(5), false}, // wrong shape
		{map[int]int64{1: 1}, map[int]int64{1: 1}, true},
		{a, a, true},
	} {
		if eq, err := resultEqual(tc.got, tc.want); err != nil || eq != tc.equal {
			t.Errorf("resultEqual(%v, %v) = %v, %v; want %v", tc.got, tc.want, eq, err, tc.equal)
		}
	}
	if _, err := resultEqual("x", "x"); err == nil {
		t.Error("a reference of an unknown shape must be an error, not a pass")
	}
	d1, d2, d3 := newDigest(), newDigest(), newDigest()
	d1.add(map[int]int64{1: 2, 3: 4})
	d2.add(map[int]int64{3: 4, 1: 2})
	d3.add(map[int]int64{1: 2, 3: 5})
	if d1.sum() != d2.sum() || d1.sum() == d3.sum() {
		t.Error("a digest must not depend on map order and must see every value")
	}
}

// benchmarkFile mirrors BENCHMARK.json.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct{ Name, Why string }
	EndToEnd   []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

// TestBenchmarkJSONMatchesTables keeps BENCHMARK.json and the tables in this
// package in step: same workloads, same metrics, same units and bounds.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	if err := json.Unmarshal(data, &f); err != nil {
		t.Fatal(err)
	}
	if len(f.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the table", len(f.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if f.Workloads[i].Name != w.name || f.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q, the table %q (or their reasons differ)", i, f.Workloads[i].Name, w.name)
		}
		if len(w.why) > 200 {
			t.Errorf("%s: why has %d characters, the contract allows 200", w.name, len(w.why))
		}
	}
	if len(f.EndToEnd) != len(endToEnd) || len(f.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d + %d metrics, the tables %d + %d", len(f.EndToEnd), len(f.PerLayer), len(endToEnd), len(perLayer))
	}
	seen := map[string]bool{}
	for i, d := range endToEnd {
		m := f.EndToEnd[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better || m.Bound != d.Bound {
			t.Errorf("end-to-end %d: BENCHMARK.json has %+v, the table %+v", i, m, d)
		}
		if d.Bound <= 0 || d.Bound > 0.25 || seen[d.Name] {
			t.Errorf("%s: bound %v outside (0, 0.25] or name used twice", d.Name, d.Bound)
		}
		seen[d.Name] = true
	}
	if len(perLayer) > 128 {
		t.Errorf("%d per-layer metrics, the contract allows 128", len(perLayer))
	}
	for i, d := range perLayer {
		m := f.PerLayer[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better || seen[d.Name] {
			t.Errorf("per-layer %d: BENCHMARK.json has %+v, the table %+v (or the name is used twice)", i, m, d)
		}
		seen[d.Name] = true
	}
}

// TestWorkloadsAtToyScale runs every workload end to end on 2 048 vertices,
// traced (a traced run also runs and times the untraced repetitions), and
// validates what it reports against the tables.
func TestWorkloadsAtToyScale(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			c := &config{
				workload: w.name, seed: 7, reps: 2, trace: true, outDir: t.TempDir(),
				vertices: 2048, workers: 2,
			}
			res, err := run(c, time.Now())
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 || res.Reps != 2 {
				t.Fatalf("correct %v, failed %d %v, reps %d", res.Correct, res.Failed, res.FailedOps, res.Reps)
			}
			// Each repetition is verified in its untraced and its traced form.
			if want := 2 * 2 * w.ops; res.Attempted != want {
				t.Errorf("attempted %d operations, want %d", res.Attempted, want)
			}
			for name, ok := range res.Checks {
				if !ok {
					t.Errorf("check %s failed", name)
				}
			}
			for _, d := range endToEnd {
				v, ok := res.EndToEnd[d.Name]
				if !ok || !(v.Value > 0) || math.IsInf(v.Value, 0) || v.Unit != d.Unit {
					t.Errorf("end-to-end %s = %+v: every workload must report it, above zero", d.Name, v)
				}
			}
			if res.PerLayer["bench.traced_wall_s"].Value <= 0 {
				t.Error("a traced run must time its traced repetitions")
			}
			if _, err := os.Stat(filepath.Join(c.outDir, w.name+".spans.json")); err != nil {
				t.Error(err)
			}
			// The summary line carries exactly one of the two tables.
			for _, traced := range []bool{false, true} {
				res.Trace = traced
				want := endToEnd
				if traced {
					want = perLayer
				}
				summary, err := json.Marshal(res.summary())
				if err != nil {
					t.Fatal(err)
				}
				var line struct {
					Correct           *bool
					Attempted, Failed *int
					Metrics           map[string]struct {
						Value *float64
						Unit  string
					}
				}
				if err := json.Unmarshal(summary, &line); err != nil {
					t.Fatal(err)
				}
				if line.Correct == nil || line.Attempted == nil || line.Failed == nil || len(line.Metrics) != len(want) {
					t.Errorf("traced %v: summary line %s lacks a key or has %d metrics, want %d", traced, summary, len(line.Metrics), len(want))
				}
				for _, d := range want {
					if m, ok := line.Metrics[d.Name]; !ok || m.Unit != d.Unit || m.Value == nil {
						t.Errorf("traced %v: summary line has %s = %+v, want unit %s", traced, d.Name, m, d.Unit)
					}
				}
			}
		})
	}
}
