package metrics

import (
	"math"
	"sort"
)

// SeriesFormat / SeriesVersion identify the exported series-set schema (see
// docs/METRICS.md §8 for the field-by-field reference).
const (
	SeriesFormat  = "surfer-metrics-series"
	SeriesVersion = 1
)

// Set is the exported form of a collection run: every series padded to the
// same window count, sorted by name (natural order, so machine-tasks:2
// precedes machine-tasks:10).
type Set struct {
	Format  string   `json:"format"`
	Version int      `json:"version"`
	Window  float64  `json:"window"`
	Windows int      `json:"windows"`
	Series  []Series `json:"series"`
}

// Series is one named signal: Values[w] is the window-w value — a sum for
// count-like series, a time-weighted average for span series, a
// nearest-rank percentile for the wait series.
type Series struct {
	Name   string    `json:"name"`
	Values []float64 `json:"values"`
}

// Lookup returns the named series, or nil.
func (s *Set) Lookup(name string) *Series {
	for i := range s.Series {
		if s.Series[i].Name == name {
			return &s.Series[i]
		}
	}
	return nil
}

// class is how a series' raw accumulator converts to exported values.
type class int

const (
	// classSum: acc is the window value (counts, bytes).
	classSum class = iota
	// classAvg: acc is value-seconds; the window value is acc ÷ window
	// length (utilizations, depths, occupancies).
	classAvg
	// classP99: the window value is the 99th-percentile (nearest rank) of
	// the window's samples.
	classP99
)

// series is one signal's accumulation state.
type series struct {
	id    seriesID
	key   string // the exported name, rendered when the series was created
	class class
	acc   []float64
	// samples holds per-window observations for classP99.
	samples map[int][]float64
	// ctrVal / ctrSince are the running level of a time-weighted counter
	// (classAvg series fed through Collector.counter).
	ctrVal   float64
	ctrSince float64
	counter  bool // listed in Collector.counters
	maxW     int  // highest window index touched (for classP99, where acc stays empty)
	// alerts is the rule engine's state for this series, one entry per rule,
	// allocated when the first rule matches it.
	alerts []alertState
}

func (s *series) grow(w int) {
	if w >= len(s.acc) {
		s.acc = append(s.acc, make([]float64, w+1-len(s.acc))...)
	}
	if w > s.maxW {
		s.maxW = w
	}
}

func (s *series) sample(w int, v float64) {
	if s.samples == nil {
		s.samples = make(map[int][]float64)
	}
	s.samples[w] = append(s.samples[w], v)
	if w > s.maxW {
		s.maxW = w
	}
}

// windows reports how many windows this series spans.
func (s *series) windows() int {
	if len(s.acc) == 0 && s.samples == nil {
		return 0
	}
	return s.maxW + 1
}

// value returns the exported value of window w in the series' current
// state (used by the alert evaluator at seal time).
func (s *series) value(w int, window float64) float64 {
	switch s.class {
	case classAvg:
		if w < len(s.acc) {
			return s.acc[w] / window
		}
	case classSum:
		if w < len(s.acc) {
			return s.acc[w]
		}
	case classP99:
		return percentile(s.samples[w], 0.99)
	}
	return 0
}

// export renders the series over nw windows. A sum or an average hands
// over its accumulator, extended with zeros and divided in place: the
// series is read no more once the collector has finished.
func (s *series) export(nw int, window float64) []float64 {
	if s.class == classP99 {
		out := make([]float64, nw)
		for w := range out {
			out[w] = s.value(w, window)
		}
		return out
	}
	out := s.acc
	s.acc = nil
	if len(out) < nw {
		out = append(out, make([]float64, nw-len(out))...)
	}
	out = out[:nw]
	if s.class == classAvg {
		for w := range out {
			out[w] /= window
		}
	}
	return out
}

// percentile is the nearest-rank percentile of samples (p in (0,1]); the
// samples are copied and sorted, so arrival order never leaks into values.
func percentile(samples []float64, p float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	sorted := make([]float64, len(samples))
	copy(sorted, samples)
	sort.Float64s(sorted)
	idx := int(math.Ceil(p*float64(len(sorted)))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}

// sortedSeries returns the series in natural order of their names (numeric
// runs compare as numbers): the order that is observable, in the exported
// set and in the sequence of alert decisions. Sorted in place, and again
// only after a new series has appeared.
func (c *Collector) sortedSeries() []*series {
	if !c.sorted {
		sort.Slice(c.all, func(i, j int) bool { return c.all[i].before(c.all[j]) })
		c.sorted = true
	}
	return c.all
}

// before orders two series as naturalLess orders their names, read off what
// the names were rendered from: families are declared in name order and IDs
// are rendered as plain decimals. Only two tenants of one family are left to
// compare by name.
func (s *series) before(t *series) bool {
	switch {
	case s.id.f != t.id.f:
		return s.id.f < t.id.f
	case s.id.a != t.id.a:
		return s.id.a < t.id.a
	case s.id.b != t.id.b:
		return s.id.b < t.id.b
	}
	return naturalLess(s.key, t.key)
}

// naturalLess compares strings with embedded integers numerically, so
// "machine-tasks:2" < "machine-tasks:10".
func naturalLess(a, b string) bool {
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		ca, cb := a[i], b[j]
		da, db := ca >= '0' && ca <= '9', cb >= '0' && cb <= '9'
		if da && db {
			// Compare the full digit runs: longer run of significant digits
			// wins; equal lengths compare lexically.
			si, sj := i, j
			for i < len(a) && a[i] >= '0' && a[i] <= '9' {
				i++
			}
			for j < len(b) && b[j] >= '0' && b[j] <= '9' {
				j++
			}
			na, nb := trimZeros(a[si:i]), trimZeros(b[sj:j])
			if len(na) != len(nb) {
				return len(na) < len(nb)
			}
			if na != nb {
				return na < nb
			}
			continue
		}
		if ca != cb {
			return ca < cb
		}
		i++
		j++
	}
	return len(a)-i < len(b)-j
}

func trimZeros(s string) string {
	for len(s) > 1 && s[0] == '0' {
		s = s[1:]
	}
	return s
}
