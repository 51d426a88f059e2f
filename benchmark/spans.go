package main

import (
	"encoding/json"
	"os"
	"runtime"
	"sort"
	"time"
)

// A span is one timed call into a layer, recorded by the benchmark from
// outside the program: name, interval, the span that enclosed it, and the
// repetition it belongs to, plus the heap allocation the call caused.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1 for a root span
	Name   string `json:"name"`
	// Rep groups the spans of one repetition: negative for set-up rounds
	// (-1 is the first), 0 for the warm-up, 1.. for the timed repetitions.
	Rep        int     `json:"rep"`
	Start      float64 `json:"start_s"` // seconds since the process started
	End        float64 `json:"end_s"`
	AllocBytes uint64  `json:"alloc_bytes"`
	Mallocs    uint64  `json:"mallocs"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer is the
// tracing-off state: span runs its function and records nothing, which is
// how the end-to-end numbers are measured.
type tracer struct {
	t0    time.Time
	rep   int
	spans []span
	open  []int // indices of the spans currently open, innermost last
	// counts are the layers' own counters, noted at the same boundaries as
	// the spans, keyed by repetition and then by name.
	counts map[int]map[string]float64
	// self caches selfSeconds(spans) once the run's spans are all in.
	self []float64
}

func newTracer(t0 time.Time) *tracer {
	return &tracer{t0: t0, counts: make(map[int]map[string]float64)}
}

// setRep selects the repetition new spans and counts are attributed to.
func (t *tracer) setRep(rep int) {
	if t != nil {
		t.rep = rep
	}
}

// span times f under name, as a child of the innermost open span.
func (t *tracer) span(name string, f func() error) error {
	if t == nil {
		return f()
	}
	parent := -1
	if len(t.open) > 0 {
		parent = t.open[len(t.open)-1]
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Rep: t.rep})
	t.open = append(t.open, id)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	err := f()
	end := time.Now()
	runtime.ReadMemStats(&after)
	t.open = t.open[:len(t.open)-1]
	s := &t.spans[id]
	s.Start = start.Sub(t.t0).Seconds()
	s.End = end.Sub(t.t0).Seconds()
	s.AllocBytes = after.TotalAlloc - before.TotalAlloc
	s.Mallocs = after.Mallocs - before.Mallocs
	return err
}

// count notes one of a layer's own counters for the current repetition.
func (t *tracer) count(name string, v float64) {
	if t == nil {
		return
	}
	m := t.counts[t.rep]
	if m == nil {
		m = make(map[string]float64)
		t.counts[t.rep] = m
	}
	m[name] = v
}

// selfSeconds returns each span's self time: its duration minus the part of
// its interval that its direct children cover. Children may nest, overlap
// or sit side by side; their union is what counts, clipped to the parent.
func selfSeconds(spans []span) []float64 {
	type iv struct{ lo, hi float64 }
	children := make(map[int][]iv)
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], iv{s.Start, s.End})
		}
	}
	self := make([]float64, len(spans))
	for i, s := range spans {
		ivs := children[s.ID]
		sort.Slice(ivs, func(a, b int) bool { return ivs[a].lo < ivs[b].lo })
		covered, edge := 0.0, s.Start
		for _, c := range ivs {
			lo, hi := max(c.lo, edge), min(c.hi, s.End)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[i] = (s.End - s.Start) - covered
	}
	return self
}

// selfTimes is selfSeconds of the tracer's spans, computed once per span set.
func (t *tracer) selfTimes() []float64 {
	if len(t.self) != len(t.spans) {
		t.self = selfSeconds(t.spans)
	}
	return t.self
}

// layerStat is what the spans of one name add up to in one repetition.
type layerStat struct {
	seconds float64 // summed self time
	bytes   float64
	mallocs float64
}

// byRep sums the spans called name per repetition, leaving out the warm-up
// (repetition 0): the result has one entry per set-up round or timed
// repetition in which the layer ran.
func (t *tracer) byRep(name string) []layerStat {
	if t == nil {
		return nil
	}
	self := t.selfTimes()
	sums := make(map[int]*layerStat)
	var reps []int
	for i, s := range t.spans {
		if s.Name != name || s.Rep == 0 {
			continue
		}
		st := sums[s.Rep]
		if st == nil {
			st = &layerStat{}
			sums[s.Rep] = st
			reps = append(reps, s.Rep)
		}
		st.seconds += self[i]
		st.bytes += float64(s.AllocBytes)
		st.mallocs += float64(s.Mallocs)
	}
	sort.Ints(reps)
	out := make([]layerStat, len(reps))
	for i, r := range reps {
		out[i] = *sums[r]
	}
	return out
}

// medianOf is the median over repetitions of one field of byRep(name); 0
// when the layer never ran on this workload.
func (t *tracer) medianOf(name string, field func(layerStat) float64) float64 {
	var xs []float64
	for _, st := range t.byRep(name) {
		xs = append(xs, field(st))
	}
	return median(xs)
}

func (t *tracer) seconds(name string) float64 {
	return t.medianOf(name, func(s layerStat) float64 { return s.seconds })
}

func (t *tracer) allocMB(name string) float64 {
	return t.medianOf(name, func(s layerStat) float64 { return s.bytes / 1e6 })
}

func (t *tracer) mallocs(name string) float64 {
	return t.medianOf(name, func(s layerStat) float64 { return s.mallocs })
}

// counter returns a layer counter and whether it read the same in every
// repetition that noted it. The warm-up's value counts too: a counter that
// drifts after the first repetition is still a drift.
func (t *tracer) counter(name string) (v float64, exact bool) {
	exact = true
	seen := false
	for _, m := range t.counts {
		x, ok := m[name]
		if !ok {
			continue
		}
		if seen && x != v {
			exact = false
		}
		v, seen = x, true
	}
	return v, exact
}

// write stores the spans and counters as JSON for offline inspection.
func (t *tracer) write(path string, header map[string]any) error {
	counts := make(map[string]map[string]float64, len(t.counts))
	for rep, m := range t.counts {
		counts[repLabel(rep)] = m
	}
	doc := map[string]any{"run": header, "spans": t.spans, "counts": counts}
	data, err := json.MarshalIndent(doc, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
