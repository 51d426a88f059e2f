package metrics

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/trace"
)

func sampleSet() *Set {
	return &Set{
		Format: SeriesFormat, Version: SeriesVersion,
		Window: 0.5, Windows: 3,
		Series: []Series{
			{Name: "link-bytes:0>1", Values: []float64{100, 0, 50}},
			{Name: "machine-tasks:0", Values: []float64{1, 0.5, 0}},
		},
	}
}

func TestWriteSetReadSetRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteSet(&buf, sampleSet()); err != nil {
		t.Fatal(err)
	}
	got, err := ReadSet(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	var buf2 bytes.Buffer
	if err := WriteSet(&buf2, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Fatalf("round trip changed bytes:\n%s\nvs\n%s", buf.Bytes(), buf2.Bytes())
	}
}

func TestReadSetRejectsForeignFiles(t *testing.T) {
	if _, err := ReadSet(strings.NewReader(`{"format":"other","version":1}`)); err == nil {
		t.Fatal("foreign format accepted")
	}
	if _, err := ReadSet(strings.NewReader(`{"format":"surfer-metrics-series","version":99}`)); err == nil {
		t.Fatal("future version accepted")
	}
	if _, err := ReadSet(strings.NewReader(`not json`)); err == nil {
		t.Fatal("garbage accepted")
	}
}

// FuzzReadSet: ReadSet never panics. On a set it accepts, the three
// renderers never panic either, and the set writes back to a file that
// re-reads to the same bytes.
//
//	go test -run '^$' -fuzz FuzzReadSet -fuzztime 30s ./internal/metrics
func FuzzReadSet(f *testing.F) {
	golden, err := os.ReadFile(filepath.Join("testdata", "chaos_series.golden"))
	if err != nil {
		f.Fatal(err)
	}
	var sample bytes.Buffer
	if err := WriteSet(&sample, sampleSet()); err != nil {
		f.Fatal(err)
	}
	const hdr = `{"format":"surfer-metrics-series","version":1,`
	for _, doc := range []string{
		string(golden), sample.String(),
		hdr + `"window":0.5,"windows":0,"series":[]}`,
		hdr + `"window":0.5,"windows":3,"series":[{"name":"a","values":[1]}]}`,
		hdr + `"window":0.5,"windows":-2,"series":[]}`,
		hdr + `"window":0,"windows":1,"series":[{"name":"a","values":[1]}]}`,
		hdr + `"window":1e-300,"windows":2,"series":[{"name":" \ud800","values":[-0,1e308]},{"values":null}]}`,
	} {
		f.Add([]byte(doc))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := ReadSet(bytes.NewReader(data))
		if err != nil {
			return
		}
		// A set with no series may claim any number of windows, and the CSV
		// has a row for each, so only short ones are rendered.
		if s.Windows <= 1<<12 {
			if err := WriteCSV(io.Discard, s); err != nil {
				t.Fatal(err)
			}
		}
		if err := WriteProm(io.Discard, s); err != nil {
			t.Fatal(err)
		}
		WriteDashboard(io.Discard, s, nil, 48)
		var out, again bytes.Buffer
		if err := WriteSet(&out, s); err != nil {
			t.Fatalf("an accepted set does not write: %v", err)
		}
		s2, err := ReadSet(bytes.NewReader(out.Bytes()))
		if err != nil {
			t.Fatalf("the written set is refused: %v\n%s", err, out.Bytes())
		}
		if err := WriteSet(&again, s2); err != nil || !bytes.Equal(out.Bytes(), again.Bytes()) {
			t.Fatalf("round trip changed the file (%v):\n%s\n%s", err, out.Bytes(), again.Bytes())
		}
	})
}

func TestWriteCSVShape(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteCSV(&buf, sampleSet()); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("got %d lines, want header + 3 windows:\n%s", len(lines), buf.String())
	}
	if lines[0] != "window,start,link-bytes:0>1,machine-tasks:0" {
		t.Fatalf("header = %q", lines[0])
	}
	if lines[2] != "1,0.5,0,0.5" {
		t.Fatalf("window 1 row = %q", lines[2])
	}
}

func TestWritePromExposition(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteProm(&buf, sampleSet()); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# TYPE surfer_series_last gauge",
		`surfer_series_last{name="link-bytes:0>1"} 50`,
		`surfer_series_sum{name="machine-tasks:0"} 1.5`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
}

func TestSparkline(t *testing.T) {
	if got := Sparkline([]float64{0, 1, 2, 3, 4, 5, 6, 7}, 8); got != "▁▂▃▄▅▆▇█" {
		t.Fatalf("ramp = %q", got)
	}
	if got := Sparkline([]float64{0, 0, 0}, 3); got != "▁▁▁" {
		t.Fatalf("all-zero = %q", got)
	}
	// Resampling keeps the bucket maximum, so the spike survives.
	if got := Sparkline([]float64{0, 9, 0, 0, 0, 0, 0, 0}, 4); got[:3] != "█" {
		t.Fatalf("spike lost: %q", got)
	}
	if Sparkline(nil, 10) != "" || Sparkline([]float64{1}, 0) != "" {
		t.Fatal("degenerate inputs should render empty")
	}
}

func TestNaturalLess(t *testing.T) {
	keys := []string{
		"machine-tasks:10", "machine-tasks:2", "level-util:0",
		"link-util:2>10", "link-util:2>3",
	}
	sort.Slice(keys, func(i, j int) bool { return naturalLess(keys[i], keys[j]) })
	want := []string{
		"level-util:0", "link-util:2>3", "link-util:2>10",
		"machine-tasks:2", "machine-tasks:10",
	}
	for i := range want {
		if keys[i] != want[i] {
			t.Fatalf("order = %v, want %v", keys, want)
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	if v := percentile([]float64{5, 1, 3}, 0.99); v != 5 {
		t.Fatalf("p99 of 3 = %g", v)
	}
	if v := percentile([]float64{4, 2}, 0.5); v != 2 {
		t.Fatalf("p50 of 2 = %g", v)
	}
	if v := percentile(nil, 0.99); v != 0 {
		t.Fatalf("empty = %g", v)
	}
}

// TestSeriesOrderIsNameOrder: series are ordered by what they measure, which
// must be the natural order of their names — for every family, with IDs
// inside and outside a topology's range, and tenants whose names hold digits.
func TestSeriesOrderIsNameOrder(t *testing.T) {
	if !sort.SliceIsSorted(families[:], func(i, j int) bool { return naturalLess(families[i].name, families[j].name) }) {
		t.Fatal("families are not declared in the natural order of their names")
	}
	none := trace.Event{Cause: trace.None, Machine: trace.None, Dst: trace.None, Part: trace.None}
	var events []trace.Event
	add := func(ev trace.Event) {
		ev.Seq = len(events)
		events = append(events, ev)
	}
	for k := trace.KindJobBegin; k <= trace.KindAlertResolved; k++ {
		for i, m := range []int{10, 2, 0, 33, 100, 9} {
			ev := none
			ev.Kind, ev.Machine, ev.Dst = k, m, (m*7+i)%12
			ev.Job, ev.Tenant = "job"+strconv.Itoa(i), "tenant-"+strconv.Itoa(m)
			ev.Time, ev.Start, ev.End, ev.Bytes = 0.1*float64(i), 0.1*float64(i), 0.1*float64(i)+0.25, 64
			add(ev)
		}
	}
	for _, topo := range []*cluster.Topology{nil, cluster.NewT1(12)} {
		set, _, err := FromEvents(events, Config{Window: 0.1, Topo: topo})
		if err != nil {
			t.Fatal(err)
		}
		if len(set.Series) < 40 {
			t.Fatalf("only %d series: the stream no longer covers the families", len(set.Series))
		}
		if !sort.SliceIsSorted(set.Series, func(i, j int) bool { return naturalLess(set.Series[i].Name, set.Series[j].Name) }) {
			names := make([]string, len(set.Series))
			for i := range set.Series {
				names[i] = set.Series[i].Name
			}
			t.Errorf("topology %v: series out of name order: %v", topo != nil, names)
		}
	}
}
