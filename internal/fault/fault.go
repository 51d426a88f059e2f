// Package fault is Surfer's fault model: permanent machine kills (Figure
// 10), transient link faults (degraded bandwidth, dropped transfers),
// machine slowdowns (stragglers), elastic membership (joins and drains), and
// the retry policy the job manager applies to dropped transfers — timeout
// and exponential backoff. Speculative re-execution of straggling tasks is
// the engine's own fixed rule.
//
// The package deliberately holds no engine state: a Schedule is a pure,
// immutable description of *when* the cluster misbehaves, queried through
// its Index by the engine's serial event loop at transfer-start and
// task-start times. That keeps the whole fault model inside the
// discrete-event determinism contract — the same schedule replays
// identically for every compute worker count, so faulty runs stay
// bit-reproducible.
package fault

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/cluster"
)

// Kill is a permanent machine death at a virtual time (Figure 10): the
// machine's running and queued tasks fail over to replicas once the
// heartbeat detects it.
type Kill struct {
	Machine cluster.MachineID `json:"machine"`
	At      float64           `json:"at"`
}

// LinkFault degrades or blackholes one directed machine-to-machine link for
// a virtual-time window. A transfer is affected when it *starts* (clears
// both NICs) inside [From, Until).
type LinkFault struct {
	// Src and Dst identify the directed link.
	Src cluster.MachineID `json:"src"`
	Dst cluster.MachineID `json:"dst"`
	// From and Until bound the active window [From, Until) in virtual
	// seconds.
	From  float64 `json:"from"`
	Until float64 `json:"until"`
	// Factor divides the link bandwidth while a degradation is active
	// (Factor 4 = quarter rate). A drop ignores it.
	Factor float64 `json:"factor,omitempty"`
}

// Slowdown multiplies the duration of tasks *starting* on a machine inside
// [From, Until) — the straggler model: the machine keeps working and keeps
// heartbeating, it is just slow.
type Slowdown struct {
	Machine cluster.MachineID `json:"machine"`
	// From and Until bound the active window [From, Until).
	From  float64 `json:"from"`
	Until float64 `json:"until"`
	// Factor multiplies task durations; values <= 1 have no effect.
	Factor float64 `json:"factor"`
}

// Schedule is a run's whole deterministic fault plan: every query of its
// Index is a pure function of (link or machine, virtual time), so replaying
// a run replays its faults. A nil *Schedule is valid and means "no faults".
//
// Its JSON form is the fault file the CLIs read (Load):
//
//	{
//	  "kills":     [{"machine": 2, "at": 1.5}],
//	  "links":     [{"src": 0, "dst": 3, "from": 0.5, "until": 2.0,
//	                 "factor": 4}],
//	  "drops":     [{"src": 1, "dst": 2, "from": 0.2, "until": 0.8}],
//	  "slowdowns": [{"machine": 5, "from": 0, "until": 10, "factor": 3}],
//	  "joins":     [{"machine": 8, "at": 0.5, "nics": 62.5e6}],
//	  "drains":    [{"machine": 3, "at": 1.0, "deadline": 4.0}]
//	}
type Schedule struct {
	// Kills are permanent machine deaths, in any order; the engine arms
	// them sorted stably by At.
	Kills []Kill `json:"kills,omitempty"`
	// Links degrade a link by Factor. Drops blackhole it: a transfer
	// starting in the window fails entirely, the sender times out after
	// RetryPolicy.Timeout and retries with backoff.
	Links     []LinkFault `json:"links,omitempty"`
	Drops     []LinkFault `json:"drops,omitempty"`
	Slowdowns []Slowdown  `json:"slowdowns,omitempty"`
	// Joins and Drains are the elastic-membership events (see elastic.go):
	// machines arriving mid-job and machines gracefully decommissioning
	// with live partition migration.
	Joins  []MachineJoin  `json:"joins,omitempty"`
	Drains []MachineDrain `json:"drains,omitempty"`
}

// active reports whether t falls inside [from, until).
func active(from, until, t float64) bool { return t >= from && t < until }

// Index is a schedule's transient faults keyed for the engine's per-event
// queries: each directed link's degradations and drops, and each machine's
// slowdowns, in schedule order, so overlapping factors compound in the
// order the schedule lists them. A nil *Index is fault-free: every query
// on it is a nil check and allocates nothing.
type Index struct {
	links     map[link]linkFaults
	slowdowns map[cluster.MachineID][]Slowdown
}

// link is a directed machine pair.
type link struct{ src, dst cluster.MachineID }

type linkFaults struct{ degrades, drops []LinkFault }

// Index builds the schedule's lookup index, nil when nothing degrades,
// drops or slows. The engine builds it once per runner.
func (s *Schedule) Index() *Index {
	if s == nil || len(s.Links)+len(s.Drops)+len(s.Slowdowns) == 0 {
		return nil
	}
	ix := &Index{links: make(map[link]linkFaults), slowdowns: make(map[cluster.MachineID][]Slowdown)}
	for _, lf := range s.Links {
		l := ix.links[link{lf.Src, lf.Dst}]
		l.degrades = append(l.degrades, lf)
		ix.links[link{lf.Src, lf.Dst}] = l
	}
	for _, lf := range s.Drops {
		l := ix.links[link{lf.Src, lf.Dst}]
		l.drops = append(l.drops, lf)
		ix.links[link{lf.Src, lf.Dst}] = l
	}
	for _, sd := range s.Slowdowns {
		ix.slowdowns[sd.Machine] = append(ix.slowdowns[sd.Machine], sd)
	}
	return ix
}

// LinkFactor returns the combined bandwidth divisor of all degradations
// active on src→dst at time t (overlapping faults compound). It is 1 when
// the link is healthy and never less than 1.
func (ix *Index) LinkFactor(src, dst cluster.MachineID, t float64) float64 {
	if ix == nil {
		return 1
	}
	f := 1.0
	for _, lf := range ix.links[link{src, dst}].degrades {
		if active(lf.From, lf.Until, t) && lf.Factor > 1 {
			f *= lf.Factor
		}
	}
	return f
}

// DropsTransfer reports whether a transfer starting on src→dst at time t is
// dropped by an active blackhole fault.
func (ix *Index) DropsTransfer(src, dst cluster.MachineID, t float64) bool {
	if ix == nil {
		return false
	}
	for _, lf := range ix.links[link{src, dst}].drops {
		if active(lf.From, lf.Until, t) {
			return true
		}
	}
	return false
}

// SlowdownFactor returns the compute slowdown of machine m at time t: the
// product of all active Slowdown factors, never less than 1.
func (ix *Index) SlowdownFactor(m cluster.MachineID, t float64) float64 {
	if ix == nil {
		return 1
	}
	f := 1.0
	for _, sd := range ix.slowdowns[m] {
		if active(sd.From, sd.Until, t) && sd.Factor > 1 {
			f *= sd.Factor
		}
	}
	return f
}

// Empty reports whether the schedule injects nothing.
func (s *Schedule) Empty() bool {
	return s == nil || len(s.Kills)+len(s.Links)+len(s.Drops)+len(s.Slowdowns)+len(s.Joins)+len(s.Drains) == 0
}

// Validate rejects a malformed plan before it can hang or corrupt a run.
// Every entry must name a machine of the topology and every window be
// well-ordered. A kill needs a finite time >= 0 and a machine killed once,
// with one machine left alive; whether the replicas survive the kills is
// engine.ValidateKills'. A drop window needs a finite end, or retries never
// succeed and the stage deadlocks. A machine joins at most once (a second
// join would join a live machine). A kill or a drain targets a machine live
// at its time (initially live, or joined before it); a drain comes at most
// once, with a deadline after its start. Every check accepts only what
// passes it, so a NaN anywhere is refused.
func (s *Schedule) Validate(numMachines int) error {
	if s == nil {
		return nil
	}
	outside := func(m cluster.MachineID) bool { return m < 0 || int(m) >= numMachines }
	killed := make(map[cluster.MachineID]bool, len(s.Kills))
	for i, k := range s.Kills {
		if !(k.At >= 0) || math.IsInf(k.At, 1) {
			return fmt.Errorf("fault: kill %d of machine %d at time %g (want a finite time >= 0)", i, k.Machine, k.At)
		}
		if outside(k.Machine) {
			return fmt.Errorf("fault: kill %d references machine %d outside the %d-machine topology", i, k.Machine, numMachines)
		}
		if killed[k.Machine] {
			return fmt.Errorf("fault: duplicate kill of machine %d", k.Machine)
		}
		killed[k.Machine] = true
	}
	if len(s.Kills) > 0 && len(killed) == numMachines {
		return fmt.Errorf("fault: the plan kills all %d machines", numMachines)
	}
	// Drops are numbered after the degradations, as one list of link faults.
	for i, lf := range slices.Concat(s.Links, s.Drops) {
		drop := i >= len(s.Links)
		if outside(lf.Src) || outside(lf.Dst) {
			return fmt.Errorf("fault: link fault %d references machine outside [0,%d)", i, numMachines)
		}
		if lf.Src == lf.Dst {
			return fmt.Errorf("fault: link fault %d on loopback link %d→%d", i, lf.Src, lf.Dst)
		}
		if !(lf.From >= 0) || !(lf.Until > lf.From) {
			return fmt.Errorf("fault: link fault %d has malformed window [%g,%g)", i, lf.From, lf.Until)
		}
		if drop && math.IsInf(lf.Until, 1) {
			return fmt.Errorf("fault: link fault %d drops transfers forever; retries could never succeed", i)
		}
		if !drop && !(lf.Factor > 1) {
			return fmt.Errorf("fault: link fault %d degrades by factor %g (want > 1)", i, lf.Factor)
		}
	}
	for i, sd := range s.Slowdowns {
		if outside(sd.Machine) {
			return fmt.Errorf("fault: slowdown %d references machine outside [0,%d)", i, numMachines)
		}
		if !(sd.From >= 0) || !(sd.Until > sd.From) {
			return fmt.Errorf("fault: slowdown %d has malformed window [%g,%g)", i, sd.From, sd.Until)
		}
		if !(sd.Factor > 1) {
			return fmt.Errorf("fault: slowdown %d has factor %g (want > 1)", i, sd.Factor)
		}
	}
	joinAt := make(map[cluster.MachineID]float64, len(s.Joins))
	for i, j := range s.Joins {
		if outside(j.Machine) {
			return fmt.Errorf("fault: join %d references machine %d outside [0,%d)", i, j.Machine, numMachines)
		}
		if !(j.At >= 0) {
			return fmt.Errorf("fault: join %d of machine %d at negative time %g", i, j.Machine, j.At)
		}
		if !(j.NICs >= 0) {
			return fmt.Errorf("fault: join %d of machine %d has negative NIC rate %g", i, j.Machine, j.NICs)
		}
		if _, dup := joinAt[j.Machine]; dup {
			return fmt.Errorf("fault: join %d joins machine %d, which is already live (joined earlier)", i, j.Machine)
		}
		joinAt[j.Machine] = j.At
	}
	for i, k := range s.Kills {
		if at, joins := joinAt[k.Machine]; joins && at >= k.At {
			return fmt.Errorf("fault: kill %d kills machine %d at %g, before it joins at %g", i, k.Machine, k.At, at)
		}
	}
	drained := make(map[cluster.MachineID]bool, len(s.Drains))
	for i, d := range s.Drains {
		if outside(d.Machine) {
			return fmt.Errorf("fault: drain %d references machine %d outside [0,%d)", i, d.Machine, numMachines)
		}
		if !(d.At >= 0) {
			return fmt.Errorf("fault: drain %d of machine %d at negative time %g", i, d.Machine, d.At)
		}
		if !(d.Deadline > d.At) {
			return fmt.Errorf("fault: drain %d of machine %d has deadline %g <= start %g; migration could never finish", i, d.Machine, d.Deadline, d.At)
		}
		if at, joins := joinAt[d.Machine]; joins && at >= d.At {
			return fmt.Errorf("fault: drain %d drains machine %d at %g, before it joins at %g", i, d.Machine, d.At, at)
		}
		if drained[d.Machine] {
			return fmt.Errorf("fault: duplicate drain for machine %d", d.Machine)
		}
		drained[d.Machine] = true
	}
	return nil
}

// RetryPolicy governs dropped-transfer recovery: a transfer that makes no
// progress for Timeout seconds is declared failed, and the sender re-issues
// it after a backoff that doubles per attempt. The zero value selects the
// defaults; attempts are unlimited unless MaxAttempts is set, so a transfer
// always succeeds once its drop window closes.
type RetryPolicy struct {
	// Timeout is how long a stalled transfer holds its NICs before the
	// sender declares it failed. Default 1s.
	Timeout float64
	// Backoff is the wait before the first retry. Default 0.25s.
	Backoff float64
	// MaxBackoff caps the backoff. Default 8s.
	MaxBackoff float64
	// MaxAttempts bounds retries; 0 means unlimited. When the bound is
	// exhausted the engine fails the whole run — there is no silent loss.
	MaxAttempts int
}

// WithDefaults fills unset fields with the default policy.
func (p RetryPolicy) WithDefaults() RetryPolicy {
	if p.Timeout <= 0 {
		p.Timeout = 1.0
	}
	if p.Backoff <= 0 {
		p.Backoff = 0.25
	}
	if p.MaxBackoff <= 0 {
		p.MaxBackoff = 8
	}
	return p
}

// BackoffAt returns the wait before retry attempt n (1-based): the
// exponential schedule Backoff · 2^(n-1), capped at MaxBackoff.
func (p RetryPolicy) BackoffAt(attempt int) float64 {
	b := p.Backoff
	for i := 1; i < attempt; i++ {
		b *= 2
		if b >= p.MaxBackoff {
			return p.MaxBackoff
		}
	}
	if b > p.MaxBackoff {
		return p.MaxBackoff
	}
	return b
}
