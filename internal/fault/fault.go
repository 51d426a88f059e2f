// Package fault is Surfer's expanded fault model: transient link faults
// (degraded bandwidth, dropped transfers), machine slowdowns (stragglers),
// and the retry policy the job manager applies to dropped transfers —
// timeout and exponential backoff. Speculative re-execution of straggling
// tasks is the engine's own fixed rule.
//
// The package deliberately holds no engine state: a Schedule is a pure,
// immutable description of *when* the cluster misbehaves, queried by the
// engine's serial event loop at transfer-start and task-start times. That
// keeps the whole fault model inside the discrete-event determinism
// contract — the same schedule replays identically for every compute
// worker count, so faulty runs stay bit-reproducible.
//
// Permanent machine deaths remain engine.Failure (Figure 10); this package
// covers everything short of death: real clusters mostly fail partially
// (links degrade, transfers stall, machines run slow without dying).
package fault

import (
	"fmt"
	"math"

	"repro/internal/cluster"
)

// LinkFault degrades or blackholes one directed machine-to-machine link for
// a virtual-time window. A transfer is affected when it *starts* (clears
// both NICs) inside [From, Until).
//
// The json tags on the fault types are the fault file's entries (File): a
// schedule file decodes straight into what the engine replays.
type LinkFault struct {
	// Src and Dst identify the directed link.
	Src cluster.MachineID `json:"src"`
	Dst cluster.MachineID `json:"dst"`
	// From and Until bound the active window [From, Until) in virtual
	// seconds.
	From  float64 `json:"from"`
	Until float64 `json:"until"`
	// Factor divides the link bandwidth while the fault is active
	// (Factor 4 = quarter rate). Values <= 1 leave bandwidth unchanged.
	// Ignored when Drop is set.
	Factor float64 `json:"factor,omitempty"`
	// Drop, when true, makes transfers starting in the window fail
	// entirely: the sender times out after RetryPolicy.Timeout and
	// retries with backoff. A file says it by listing the entry under
	// "drops".
	Drop bool `json:"-"`
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

// Schedule is a deterministic fault plan: every query is a pure function of
// (link or machine, virtual time), so replaying a run replays its faults.
// A nil *Schedule is valid and means "no transient faults" — every query
// on it is a nil-check and allocates nothing (the fault-free hot path).
type Schedule struct {
	Links     []LinkFault
	Slowdowns []Slowdown
	// Joins and Drains are the elastic-membership events (see elastic.go):
	// machines arriving mid-job and machines gracefully decommissioning
	// with live partition migration.
	Joins  []MachineJoin
	Drains []MachineDrain
}

// active reports whether t falls inside [from, until).
func active(from, until, t float64) bool { return t >= from && t < until }

// LinkFactor returns the combined bandwidth divisor of all degradations
// active on src→dst at time t (overlapping faults compound). It is 1 when
// the link is healthy and never less than 1.
func (s *Schedule) LinkFactor(src, dst cluster.MachineID, t float64) float64 {
	if s == nil {
		return 1
	}
	f := 1.0
	for i := range s.Links {
		lf := &s.Links[i]
		if lf.Drop || lf.Src != src || lf.Dst != dst || !active(lf.From, lf.Until, t) {
			continue
		}
		if lf.Factor > 1 {
			f *= lf.Factor
		}
	}
	return f
}

// DropsTransfer reports whether a transfer starting on src→dst at time t is
// dropped by an active blackhole fault.
func (s *Schedule) DropsTransfer(src, dst cluster.MachineID, t float64) bool {
	if s == nil {
		return false
	}
	for i := range s.Links {
		lf := &s.Links[i]
		if lf.Drop && lf.Src == src && lf.Dst == dst && active(lf.From, lf.Until, t) {
			return true
		}
	}
	return false
}

// SlowdownFactor returns the compute slowdown of machine m at time t: the
// product of all active Slowdown factors, never less than 1.
func (s *Schedule) SlowdownFactor(m cluster.MachineID, t float64) float64 {
	if s == nil {
		return 1
	}
	f := 1.0
	for i := range s.Slowdowns {
		sd := &s.Slowdowns[i]
		if sd.Machine == m && active(sd.From, sd.Until, t) && sd.Factor > 1 {
			f *= sd.Factor
		}
	}
	return f
}

// Empty reports whether the schedule injects nothing.
func (s *Schedule) Empty() bool {
	return s == nil || (len(s.Links) == 0 && len(s.Slowdowns) == 0 &&
		len(s.Joins) == 0 && len(s.Drains) == 0)
}

// Validate rejects malformed fault windows before they can hang a run: a
// drop window needs a finite end (otherwise retries never succeed and the
// stage deadlocks) and every window must be well-ordered.
func (s *Schedule) Validate(numMachines int) error {
	if s == nil {
		return nil
	}
	for i, lf := range s.Links {
		if int(lf.Src) < 0 || int(lf.Src) >= numMachines || int(lf.Dst) < 0 || int(lf.Dst) >= numMachines {
			return fmt.Errorf("fault: link fault %d references machine outside [0,%d)", i, numMachines)
		}
		if lf.Src == lf.Dst {
			return fmt.Errorf("fault: link fault %d on loopback link %d→%d", i, lf.Src, lf.Dst)
		}
		if lf.From < 0 || lf.Until <= lf.From {
			return fmt.Errorf("fault: link fault %d has malformed window [%g,%g)", i, lf.From, lf.Until)
		}
		if lf.Drop && math.IsInf(lf.Until, 1) {
			return fmt.Errorf("fault: link fault %d drops transfers forever; retries could never succeed", i)
		}
		if !lf.Drop && lf.Factor <= 1 {
			return fmt.Errorf("fault: link fault %d degrades by factor %g (want > 1, or Drop)", i, lf.Factor)
		}
	}
	for i, sd := range s.Slowdowns {
		if int(sd.Machine) < 0 || int(sd.Machine) >= numMachines {
			return fmt.Errorf("fault: slowdown %d references machine outside [0,%d)", i, numMachines)
		}
		if sd.From < 0 || sd.Until <= sd.From {
			return fmt.Errorf("fault: slowdown %d has malformed window [%g,%g)", i, sd.From, sd.Until)
		}
		if sd.Factor <= 1 {
			return fmt.Errorf("fault: slowdown %d has factor %g (want > 1)", i, sd.Factor)
		}
	}
	return ValidateElastic(s.Joins, s.Drains, numMachines)
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
