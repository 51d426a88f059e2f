package metrics

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"slices"
	"strings"
)

// WriteSet writes the series set as indented-but-stable JSON: a fixed
// header, then one series per line. Output is byte-deterministic (series
// sorted, Go's shortest-round-trip float encoding), which is what the
// live-vs-derived identity gates compare.
func WriteSet(w io.Writer, s *Set) error {
	hdr, err := json.Marshal(struct {
		Format  string  `json:"format"`
		Version int     `json:"version"`
		Window  float64 `json:"window"`
		Windows int     `json:"windows"`
	}{s.Format, s.Version, s.Window, s.Windows})
	if err != nil {
		return err
	}
	head := strings.TrimSuffix(string(hdr), "}")
	if _, err := io.WriteString(w, head+`,"series":[`+"\n"); err != nil {
		return err
	}
	for i := range s.Series {
		line, err := json.Marshal(&s.Series[i])
		if err != nil {
			return err
		}
		sep := ","
		if i == len(s.Series)-1 {
			sep = ""
		}
		if _, err := w.Write(append(line, []byte(sep+"\n")...)); err != nil {
			return err
		}
	}
	_, err = io.WriteString(w, "]}\n")
	return err
}

// ReadSet parses a series file written by WriteSet, refusing one whose window,
// window count or series lengths the writers cannot render.
func ReadSet(r io.Reader) (*Set, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	s := &Set{}
	if err := json.Unmarshal(data, s); err != nil {
		return nil, fmt.Errorf("metrics: parsing series file: %w", err)
	}
	if s.Format != SeriesFormat {
		return nil, fmt.Errorf("metrics: format %q, want %q", s.Format, SeriesFormat)
	}
	if s.Version != SeriesVersion {
		return nil, fmt.Errorf("metrics: version %d, want %d", s.Version, SeriesVersion)
	}
	if !(s.Window > 0) || math.IsInf(s.Window, 1) {
		return nil, fmt.Errorf("metrics: window %g, want a positive finite number of seconds", s.Window)
	}
	if s.Windows < 0 {
		return nil, fmt.Errorf("metrics: %d windows, want a count of at least 0", s.Windows)
	}
	for i := range s.Series {
		if n := len(s.Series[i].Values); n != s.Windows {
			return nil, fmt.Errorf("metrics: series %q has %d values, want the file's %d windows", s.Series[i].Name, n, s.Windows)
		}
	}
	return s, nil
}

// WriteCSV writes the set as a window-per-row table: window index, window
// start time, then one column per series.
func WriteCSV(w io.Writer, s *Set) error {
	cols := make([]string, 0, 2+len(s.Series))
	cols = append(cols, "window", "start")
	for i := range s.Series {
		cols = append(cols, s.Series[i].Name)
	}
	if _, err := io.WriteString(w, strings.Join(cols, ",")+"\n"); err != nil {
		return err
	}
	for wi := 0; wi < s.Windows; wi++ {
		row := make([]string, 0, len(cols))
		row = append(row, fmt.Sprintf("%d", wi), formatFloat(float64(wi)*s.Window))
		for i := range s.Series {
			row = append(row, formatFloat(s.Series[i].Values[wi]))
		}
		if _, err := io.WriteString(w, strings.Join(row, ",")+"\n"); err != nil {
			return err
		}
	}
	return nil
}

func formatFloat(v float64) string {
	b, _ := json.Marshal(v)
	return string(b)
}

// WriteProm writes the set in Prometheus text exposition format: the
// last-window value of every series as a gauge and the whole-run sum as a
// counter-style total, labeled by series name. This is the bridge for the
// wall-clock bench path — scrape-friendly output, same numbers as the
// deterministic exports.
func WriteProm(w io.Writer, s *Set) error {
	if _, err := io.WriteString(w,
		"# HELP surfer_series_last Last-window value of a surfer metrics series.\n"+
			"# TYPE surfer_series_last gauge\n"); err != nil {
		return err
	}
	for i := range s.Series {
		last := 0.0
		if n := len(s.Series[i].Values); n > 0 {
			last = s.Series[i].Values[n-1]
		}
		if _, err := fmt.Fprintf(w, "surfer_series_last{name=%q} %s\n",
			s.Series[i].Name, formatFloat(last)); err != nil {
			return err
		}
	}
	if _, err := io.WriteString(w,
		"# HELP surfer_series_sum Sum of a surfer metrics series over all windows.\n"+
			"# TYPE surfer_series_sum gauge\n"); err != nil {
		return err
	}
	for i := range s.Series {
		sum := 0.0
		for _, v := range s.Series[i].Values {
			sum += v
		}
		if _, err := fmt.Fprintf(w, "surfer_series_sum{name=%q} %s\n",
			s.Series[i].Name, formatFloat(sum)); err != nil {
			return err
		}
	}
	return nil
}

// sparkRunes is the eight-level bar ramp of Sparkline.
var sparkRunes = []rune("▁▂▃▄▅▆▇█")

// WriteDashboard renders the terminal view surfer-metrics defaults to: one
// sparkline row per series, then the alert transcript.
func WriteDashboard(w io.Writer, set *Set, alerts []Alert, width int) {
	fmt.Fprintf(w, "%d series × %d windows of %gs\n", len(set.Series), set.Windows, set.Window)
	nameW := 0
	for i := range set.Series {
		nameW = max(nameW, len(set.Series[i].Name))
	}
	for i := range set.Series {
		s := &set.Series[i]
		peak, last := 0.0, 0.0
		if n := len(s.Values); n > 0 {
			peak, last = max(0, slices.Max(s.Values)), s.Values[n-1]
		}
		fmt.Fprintf(w, "  %-*s  %s  max %-10.4g last %.4g\n",
			nameW, s.Name, Sparkline(s.Values, width), peak, last)
	}
	if len(alerts) == 0 {
		return
	}
	fmt.Fprintf(w, "alerts (%d transition(s)):\n", len(alerts))
	for _, al := range alerts {
		state := "FIRED"
		if al.Resolved {
			state = "resolved"
		}
		fmt.Fprintf(w, "  %-8s %s@%s  window %d (t=%.4g)  value %.4g\n",
			state, al.Rule, al.Series, al.Window, al.Time, al.Value)
	}
}

// Sparkline renders values as a fixed-width bar string, resampling by
// taking the maximum within each column's bucket and scaling to the series
// maximum (an all-zero series renders as all-minimum bars).
func Sparkline(values []float64, width int) string {
	if width <= 0 || len(values) == 0 {
		return ""
	}
	if width > len(values) {
		width = len(values)
	}
	max := 0.0
	for _, v := range values {
		if v > max {
			max = v
		}
	}
	out := make([]rune, width)
	for c := 0; c < width; c++ {
		lo := c * len(values) / width
		hi := (c + 1) * len(values) / width
		if hi <= lo {
			hi = lo + 1
		}
		bucket := 0.0
		for _, v := range values[lo:hi] {
			if v > bucket {
				bucket = v
			}
		}
		idx := 0
		if max > 0 {
			idx = int(bucket / max * float64(len(sparkRunes)-1))
			if idx >= len(sparkRunes) {
				idx = len(sparkRunes) - 1
			}
		}
		out[c] = sparkRunes[idx]
	}
	return string(out)
}
