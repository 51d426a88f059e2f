// Package metrics is Surfer's windowed time-series layer: it folds the trace
// event stream into fixed virtual-clock windows — per-directed-link and
// per-bisection-level utilization, per-machine NIC queue depth, running
// tasks and inflight bytes, per-tenant slot occupancy and admission wait,
// and retry/migration/checkpoint rates — and evaluates SLO alert rules
// against the sealed windows as they close.
//
// The same Collector serves both sampling paths. Live, it attaches to the
// engine's trace.Recorder as an Emit observer and folds each event the
// moment the serial event loop emits it; offline, FromEvents replays a
// captured surfer-trace-events stream through the identical Observe loop in
// Seq order. Because the two paths execute the same code over the same
// ordered stream, their exported series are byte-identical — for every
// worker count, with or without faults and elastic churn — which is what
// lets the autoscaler, the alert engine and the dashboards all trust one
// set of numbers.
//
// Windowing semantics: window w covers [w·W, (w+1)·W) of virtual time.
// Count-like signals (bytes, rates, waits) are charged wholly to the window
// containing their event's Time, so window sums integrate exactly to the
// stream totals analyze computes. Span signals (utilization, running tasks,
// inflight bytes, slot occupancy) spread their Start..End interval over the
// windows it overlaps and export as time-weighted averages. A window seals
// — and alert rules evaluate — once the stream clock has advanced one full
// window past its end; span contributions arriving later (a long task whose
// end event lands windows after its start) still reach the exported series
// but are invisible to the already-sealed alert evaluation. That lag is the
// deterministic analogue of a real collector's scrape delay.
package metrics

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"repro/internal/cluster"
	"repro/internal/trace"
)

// sealLagWindows is how many whole windows the stream clock must advance
// past a window's end before it seals. One window of lag lets the span
// signals of short tasks and transfers land before their window is judged.
const sealLagWindows = 1

// maxWindows bounds the windows a series may hold. Every window index the
// fold computes comes from an event's Time, Start or End, so Observe checks
// the furthest of the three before it folds an event: a time far past the
// run, or a window far shorter than it, is refused rather than allocated.
const maxWindows = 1 << 20

// Config parameterizes a Collector.
type Config struct {
	// Window is the fixed virtual-clock window length in seconds. Required.
	Window float64
	// Topo, when set, enables the per-bisection-level utilization series and
	// bounds the per-link series to its machines (mirroring the link
	// report's guards, so window sums reconcile with analyze exactly).
	Topo *cluster.Topology
	// Rules, when set, is evaluated at every window seal; breaches emit
	// alert-fired / alert-resolved events (live) and Alert records (always).
	Rules *RuleSet
}

// Collector folds an ordered event stream into windowed series. Create with
// NewCollector, feed with Observe (or Attach to a live Recorder), then call
// Finish exactly once.
type Collector struct {
	cfg Config
	n   int     // machine count when Topo is set, else 0
	lvl [][]int // bisection levels when Topo is set

	// A series is found by what it measures, never by its name: dense holds,
	// per family, the series of machines (and machine pairs, row-major) below
	// n; sparse holds every other machine's, grown on demand — all of them
	// when no topology fixes n; tenants is scanned (a run has a handful).
	// The name is rendered once, when the series is created.
	dense   [numFamilies][]*series
	sparse  map[seriesID]*series
	tenants []tenantSeries
	all     []*series // every series: in creation order until sorted by name
	sorted  bool
	// counters are the series fed through counter(), which alone hold a
	// level between events and so alone need flushing at a seal.
	counters []*series
	// Series records come from chunks that never move, as the tables above
	// hold pointers to them; each accumulator starts as a capped window,
	// presize long, of a shared slab; and each name is sliced out of one
	// builder, which never rewrites the bytes it has handed out.
	chunk []series
	slab  []float64
	names strings.Builder

	lastSeq []int // per window: Seq of the last event whose Time fell in it
	// queuedAt maps a queued job's spec ID to its job-queued time, for the
	// admission-wait samples.
	queuedAt map[string]float64
	cursor   float64 // monotone max event Time seen
	maxTime  float64 // max Time/End seen: the extent of the series
	sealedTo int     // windows [0, sealedTo) have been sealed
	alerts   []Alert
	emit     func(trace.Event) int // live alert emission; nil offline
	finished bool
	presize  int   // windows of capacity a new accumulator starts with
	err      error // the refusal of an event past maxWindows; nothing folds after it
}

// NewCollector validates cfg and returns an empty collector.
func NewCollector(cfg Config) (*Collector, error) {
	if !(cfg.Window > 0) || math.IsInf(cfg.Window, 1) {
		return nil, fmt.Errorf("metrics: window must be positive and finite, got %g", cfg.Window)
	}
	if cfg.Rules != nil {
		if err := cfg.Rules.Validate(); err != nil {
			return nil, err
		}
	}
	c := &Collector{
		cfg:      cfg,
		sparse:   make(map[seriesID]*series),
		queuedAt: make(map[string]float64),
	}
	if cfg.Topo != nil {
		c.n = cfg.Topo.NumMachines()
		c.lvl = cluster.BisectionLevels(cfg.Topo)
	}
	return c, nil
}

// Attach registers the collector as a live observer on rec: every Emit is
// folded immediately, and alert events are emitted back into the same
// stream with real Seqs and causal edges. Call before the run starts.
func (c *Collector) Attach(rec *trace.Recorder) {
	c.emit = rec.Emit
	rec.Observe(c.Observe)
}

// FromEvents derives the series (and alert records) a live collector with
// the same config would have produced, by replaying a captured stream
// through the identical fold. Alert events already present in the stream
// (from a live run with rules) are skipped by the fold, so deriving from a
// live capture reproduces the live series byte for byte.
func FromEvents(events []trace.Event, cfg Config) (*Set, []Alert, error) {
	c, err := NewCollector(cfg)
	if err != nil {
		return nil, nil, err
	}
	// Room for the stream's extent, as capacity only, and at most a window per
	// event: a drain's End (its deadline) may lie far past the run.
	extent := 0.0
	for i := range events {
		extent = max(extent, events[i].Time, events[i].End)
	}
	c.presize = int(min(extent/cfg.Window, float64(len(events)))) + 1
	for i := range events {
		c.Observe(&events[i])
	}
	if c.err != nil {
		return nil, nil, c.err
	}
	set := c.Finish()
	return set, c.Alerts(), nil
}

// Err reports the event that stopped the fold, if one did: one whose Time,
// Start or End lies maxWindows windows or more past zero. Observe ignores
// every event after it; Finish returns the series folded before it.
func (c *Collector) Err() error { return c.err }

// AutoWindow sizes a window for a captured stream whose length is only known
// afterwards: a thirty-second of the makespan, 0 for a stream that never
// left t = 0. The stream clock (max Time) is the makespan; span End fields
// are not used because a drain's End carries its deadline, which can lie far
// past the run.
func AutoWindow(events []trace.Event) float64 {
	makespan := 0.0
	for i := range events {
		makespan = max(makespan, events[i].Time)
	}
	return makespan / 32
}

// family is one kind of signal; with a machine, a machine pair, a level or
// a tenant it identifies a series. Declared in the natural order of the
// names, so that ordering series by (family, IDs) orders them by name.
type family uint8

const (
	levelUtil family = iota // per bisection level
	linkBytes               // per directed link
	linkUtil
	machineInflight // per machine
	machineQueue
	machineTasks
	queueDepth // one series each, down to rateTransferRetries
	rateCheckpoints
	rateFailures
	rateMigrations
	rateRestores
	rateRetries
	rateSpeculations
	rateTransferDrops
	rateTransferRetries
	tenantSlots // per tenant
	tenantWait
	numFamilies
)

// families gives each family its series name (the part before the ":") and
// how its accumulator exports.
var families = [numFamilies]struct {
	name  string
	class class
}{
	levelUtil:           {"level-util", classAvg},
	linkBytes:           {"link-bytes", classSum},
	linkUtil:            {"link-util", classAvg},
	machineInflight:     {"machine-inflight-bytes", classAvg},
	machineQueue:        {"machine-queue", classAvg},
	machineTasks:        {"machine-tasks", classAvg},
	queueDepth:          {"queue-depth", classAvg},
	rateCheckpoints:     {"rate-checkpoints", classSum},
	rateFailures:        {"rate-failures", classSum},
	rateMigrations:      {"rate-migrations", classSum},
	rateRestores:        {"rate-restores", classSum},
	rateRetries:         {"rate-retries", classSum},
	rateSpeculations:    {"rate-speculations", classSum},
	rateTransferDrops:   {"rate-transfer-drops", classSum},
	rateTransferRetries: {"rate-transfer-retries", classSum},
	tenantSlots:         {"tenant-slots", classAvg},
	tenantWait:          {"tenant-wait-p99", classP99},
}

// seriesID is what a series measures: its family and the machine, machine
// pair or level it is about (trace.None where there is none; tenants go by
// name).
type seriesID struct {
	f    family
	a, b int
}

type tenantSeries struct {
	f      family
	tenant string
	s      *series
}

// A new chunk of series, or of their accumulators' slab, holds as many
// series as exist so far, within these bounds: the cap bounds what a
// chunk's unused tail costs at the end of the fold.
const minChunk, maxChunk = 16, 256

// newSeries registers the series id under key.
func (c *Collector) newSeries(id seriesID, key string) *series {
	n := min(max(len(c.all), minChunk), maxChunk)
	if len(c.chunk) == 0 {
		c.chunk = make([]series, n)
	}
	s := &c.chunk[0]
	c.chunk = c.chunk[1:]
	if len(c.slab) < c.presize {
		c.slab = make([]float64, n*c.presize)
	}
	*s = series{id: id, key: key, class: families[id.f].class, acc: c.slab[:0:c.presize]}
	c.slab = c.slab[c.presize:]
	c.all = append(c.all, s)
	c.sorted = false
	return s
}

// name renders family f's series name with the given suffix parts (an ID
// where a is not negative, ">"+ID where b is not, ":"+tenant where tenant
// is set) into the collector's name builder and returns it.
func (c *Collector) name(f family, a, b int, tenant string) string {
	start := c.names.Len()
	c.names.WriteString(families[f].name)
	var buf [20]byte
	if a >= 0 {
		c.names.WriteByte(':')
		c.names.Write(strconv.AppendInt(buf[:0], int64(a), 10))
	}
	if b >= 0 {
		c.names.WriteByte('>')
		c.names.Write(strconv.AppendInt(buf[:0], int64(b), 10))
	}
	if tenant != "" {
		c.names.WriteByte(':')
		c.names.WriteString(tenant)
	}
	return c.names.String()[start:]
}

// at returns (creating if needed) family f's series of the directed link
// a -> b, of machine (or level) a when b is trace.None, or the family's only
// series when a is too. IDs that are given are not negative.
func (c *Collector) at(f family, a, b int) *series {
	idx, size, dense := 0, 1, true
	switch {
	case b >= 0:
		idx, size, dense = a*c.n+b, c.n*c.n, a < c.n && b < c.n
	case a >= 0:
		idx, size, dense = a, c.n, a < c.n
	}
	id := seriesID{f, a, b}
	var s *series
	if !dense {
		s = c.sparse[id]
	} else if c.dense[f] == nil {
		c.dense[f] = make([]*series, size)
	} else {
		s = c.dense[f][idx]
	}
	if s == nil {
		s = c.newSeries(id, c.name(f, a, b, ""))
		if dense {
			c.dense[f][idx] = s
		} else {
			c.sparse[id] = s
		}
	}
	return s
}

// one returns the only series of family f.
func (c *Collector) one(f family) *series { return c.at(f, trace.None, trace.None) }

// tenant returns family f's series of the named tenant.
func (c *Collector) tenant(f family, name string) *series {
	for i := range c.tenants {
		if t := &c.tenants[i]; t.f == f && t.tenant == name {
			return t.s
		}
	}
	s := c.newSeries(seriesID{f, trace.None, trace.None}, c.name(f, trace.None, trace.None, name))
	c.tenants = append(c.tenants, tenantSeries{f, name, s})
	return s
}

// windowOf maps a virtual time to its window index.
func (c *Collector) windowOf(t float64) int {
	if t <= 0 {
		return 0
	}
	return int(t / c.cfg.Window)
}

// spanWindows calls f(window, overlap seconds) for every window the
// interval [lo, hi) overlaps.
func (c *Collector) spanWindows(lo, hi float64, f func(w int, overlap float64)) {
	if hi <= lo {
		return
	}
	if lo < 0 {
		lo = 0
	}
	w := c.windowOf(lo)
	for {
		wlo := float64(float64(w) * c.cfg.Window) // rounded: no fused multiply-add (DESIGN.md)
		whi := wlo + c.cfg.Window
		olo, ohi := lo, hi
		if olo < wlo {
			olo = wlo
		}
		if ohi > whi {
			ohi = whi
		}
		if ohi > olo {
			f(w, ohi-olo)
		}
		if hi <= whi {
			return
		}
		w++
	}
}

// addAt charges v to the window containing t (count-like signals).
func (c *Collector) addAt(s *series, t, v float64) {
	w := c.windowOf(t)
	s.grow(w)
	s.acc[w] += v
}

// addSpan spreads rate × overlap over the windows [lo, hi) touches.
func (c *Collector) addSpan(s *series, lo, hi, rate float64) {
	c.spanWindows(lo, hi, func(w int, o float64) {
		s.grow(w)
		s.acc[w] += float64(rate * o) // rounded: no fused multiply-add (DESIGN.md)
	})
}

// counter applies a step change of delta at time t to a time-weighted
// counter series: the level held since the last change is flushed into the
// windows it spanned, then the level steps.
func (c *Collector) counter(s *series, t, delta float64) {
	if !s.counter {
		s.counter = true
		c.counters = append(c.counters, s)
	}
	c.addSpan(s, s.ctrSince, t, s.ctrVal)
	if t > s.ctrSince {
		s.ctrSince = t
	}
	s.ctrVal += delta
}

// flushCounters brings every counter series current to time t, so sealed
// windows carry the level that was held across them even when no step
// change landed nearby. Each flush touches only its own series, so the
// order of the walk shows nowhere.
func (c *Collector) flushCounters(t float64) {
	for _, s := range c.counters {
		if s.ctrVal != 0 || s.ctrSince > 0 {
			c.addSpan(s, s.ctrSince, t, s.ctrVal)
			if t > s.ctrSince {
				s.ctrSince = t
			}
		}
	}
}

// note records t (and optional span end) against the clock extents, and the
// event's Seq as the window's latest causal anchor.
func (c *Collector) note(ev *trace.Event) {
	if ev.Time > c.maxTime {
		c.maxTime = ev.Time
	}
	if ev.End > c.maxTime {
		c.maxTime = ev.End
	}
	w := c.windowOf(ev.Time)
	for len(c.lastSeq) <= w {
		c.lastSeq = append(c.lastSeq, trace.None)
	}
	c.lastSeq[w] = ev.Seq
}

// linkOK mirrors the link report's machine guards: non-negative IDs, and in
// range of the topology when one is configured.
func (c *Collector) linkOK(src, dst int) bool {
	if src < 0 || dst < 0 {
		return false
	}
	if c.n > 0 && (src >= c.n || dst >= c.n) {
		return false
	}
	return true
}

// Observe folds one event. Events must arrive in Seq order (the Recorder
// guarantees this live; FromEvents replays captures in stream order).
func (c *Collector) Observe(ev *trace.Event) {
	if c == nil || c.finished || c.err != nil {
		return
	}
	switch ev.Kind {
	case trace.KindAlertFired, trace.KindAlertResolved:
		// Alerts are outputs of this fold, not inputs: skipping them makes
		// deriving from a live capture (which contains them) reproduce the
		// live series exactly, and keeps the rule engine from feeding back.
		return
	}
	if far := max(ev.Time, ev.Start, ev.End); !(far/c.cfg.Window < maxWindows) {
		c.err = fmt.Errorf("metrics: event %d reaches t = %g s, which a %g s window puts past the %d windows a series may hold",
			ev.Seq, far, c.cfg.Window, maxWindows)
		return
	}

	switch ev.Kind {
	case trace.KindTransfer, trace.KindPartitionMigrate:
		if c.linkOK(ev.Machine, ev.Dst) {
			link := c.at(linkUtil, ev.Machine, ev.Dst)
			var level *series
			if c.n > 0 { // linkOK bounds both ends by the topology
				level = c.at(levelUtil, c.lvl[ev.Machine][ev.Dst], trace.None)
			}
			c.spanWindows(ev.Start, ev.End, func(w int, o float64) {
				link.grow(w)
				link.acc[w] += o
				if level != nil {
					// The level series tracks its hottest directed link per
					// window; link accumulators only grow, so a running max
					// stays correct as later transfers land.
					level.grow(w)
					if link.acc[w] > level.acc[w] {
						level.acc[w] = link.acc[w]
					}
				}
			})
			c.addAt(c.at(linkBytes, ev.Machine, ev.Dst), ev.Time, float64(ev.Bytes))
			c.addSpan(c.at(machineInflight, ev.Dst, trace.None), ev.Time, ev.End, float64(ev.Bytes))
		}
		if ev.Machine >= 0 {
			// NIC queue depth: the transfer waited on the source machine's
			// egress from issue until both NICs freed up.
			c.addSpan(c.at(machineQueue, ev.Machine, trace.None), ev.Time, ev.Start, 1)
		}
		if ev.Kind == trace.KindPartitionMigrate {
			c.addAt(c.one(rateMigrations), ev.Time, 1)
		}
	case trace.KindTaskEnd:
		if ev.Machine >= 0 {
			c.addSpan(c.at(machineTasks, ev.Machine, trace.None), ev.Start, ev.End, 1)
		}
	case trace.KindTransferDrop:
		if ev.Machine >= 0 {
			c.addSpan(c.at(machineQueue, ev.Machine, trace.None), ev.Time, ev.Start, 1)
		}
		c.addAt(c.one(rateTransferDrops), ev.Time, 1)
	case trace.KindTransferRetry:
		c.addAt(c.one(rateTransferRetries), ev.Time, 1)
	case trace.KindRetry:
		c.addAt(c.one(rateRetries), ev.Time, 1)
	case trace.KindSpeculate:
		c.addAt(c.one(rateSpeculations), ev.Time, 1)
	case trace.KindFailure:
		c.addAt(c.one(rateFailures), ev.Time, 1)
	case trace.KindCheckpoint:
		c.addAt(c.one(rateCheckpoints), ev.Time, 1)
	case trace.KindRestore:
		c.addAt(c.one(rateRestores), ev.Time, 1)
	case trace.KindJobQueued:
		c.counter(c.one(queueDepth), ev.Time, 1)
		c.queuedAt[ev.Job] = ev.Time
	case trace.KindJobAdmitted:
		c.counter(c.one(queueDepth), ev.Time, -1)
		if qt, ok := c.queuedAt[ev.Job]; ok {
			delete(c.queuedAt, ev.Job)
			if ev.Tenant != "" {
				c.tenant(tenantWait, ev.Tenant).sample(c.windowOf(ev.Time), ev.Time-qt)
			}
		}
	case trace.KindJobRejected:
		c.counter(c.one(queueDepth), ev.Time, -1)
		delete(c.queuedAt, ev.Job)
	case trace.KindStageBegin:
		if ev.Tenant != "" {
			// A run slot is held exactly while a stage runs (the scheduler
			// re-arbitrates slots at every barrier), so slot occupancy is the
			// stage-begin/stage-end bracket.
			c.counter(c.tenant(tenantSlots, ev.Tenant), ev.Time, 1)
		}
	case trace.KindStageEnd:
		if ev.Tenant != "" {
			c.counter(c.tenant(tenantSlots, ev.Tenant), ev.Time, -1)
		}
	}

	c.note(ev)
	if ev.Time > c.cursor {
		c.cursor = ev.Time
		c.sealTo(c.cursor)
	}
}

// sealTo seals (and rule-evaluates) every window whose end is at least one
// full seal-lag window behind the stream clock.
func (c *Collector) sealTo(clock float64) {
	flushed := false
	for float64(c.sealedTo+1+sealLagWindows)*c.cfg.Window <= clock {
		if !flushed {
			c.flushCounters(clock)
			flushed = true
		}
		c.seal(c.sealedTo)
		c.sealedTo++
	}
}

// Finish flushes the counters, seals every remaining window, and returns
// the exported series set. Call exactly once; further Observe calls are
// ignored.
func (c *Collector) Finish() *Set {
	if c.finished {
		return nil
	}
	c.flushCounters(c.maxTime)
	nw := 0
	for _, s := range c.all {
		if n := s.windows(); n > nw {
			nw = n
		}
	}
	for c.sealedTo < nw {
		c.seal(c.sealedTo)
		c.sealedTo++
	}
	c.finished = true

	set := &Set{
		Format:  SeriesFormat,
		Version: SeriesVersion,
		Window:  c.cfg.Window,
		Windows: nw,
	}
	set.Series = make([]Series, 0, len(c.all))
	for _, s := range c.sortedSeries() {
		set.Series = append(set.Series, Series{Name: s.key, Values: s.export(nw, c.cfg.Window)})
	}
	return set
}

// Alerts returns the alert records in decision order (valid after Finish,
// or at any point during a live run for the windows sealed so far).
func (c *Collector) Alerts() []Alert { return c.alerts }
