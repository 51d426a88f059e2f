package metrics

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"strings"

	"repro/internal/trace"
)

// SLO alert rules. A rule names a series (exactly, or a family via a
// trailing-* prefix pattern), a comparison against a threshold, and how many
// consecutive breaching windows must seal before the alert fires. Rules
// evaluate at window-seal time — deterministically, on the same numbers both
// sampling paths compute — and fire/resolve transitions become alert-fired /
// alert-resolved trace events (live) and Alert records (both paths).

// Rule is one SLO condition, e.g. {"name": "level0-hot", "series":
// "level-util:0", "op": ">", "threshold": 0.9, "for": 3}.
type Rule struct {
	// Name labels the alert in events and records.
	Name string `json:"name"`
	// Series is the series key the rule watches, or a prefix pattern ending
	// in "*" ("tenant-wait-p99:*") that instantiates the rule per matching
	// series.
	Series string `json:"series"`
	// Op is the breach comparison: ">", ">=", "<" or "<=".
	Op string `json:"op"`
	// Threshold is the breach boundary.
	Threshold float64 `json:"threshold"`
	// For is how many consecutive breaching windows fire the alert.
	// Defaults to 1. Resolution needs a single clear window.
	For int `json:"for,omitempty"`
}

// matches reports whether the rule watches series key.
func (r *Rule) matches(key string) bool {
	if strings.HasSuffix(r.Series, "*") {
		return strings.HasPrefix(key, strings.TrimSuffix(r.Series, "*"))
	}
	return key == r.Series
}

// breach reports whether v violates the rule.
func (r *Rule) breach(v float64) bool {
	switch r.Op {
	case ">":
		return v > r.Threshold
	case ">=":
		return v >= r.Threshold
	case "<":
		return v < r.Threshold
	case "<=":
		return v <= r.Threshold
	}
	return false
}

// RuleSet is the on-disk rule file: {"rules": [...]}.
type RuleSet struct {
	Rules []Rule `json:"rules"`
}

// Validate checks every rule is well-formed and applies the For default.
func (rs *RuleSet) Validate() error {
	seen := make(map[string]bool)
	for i := range rs.Rules {
		r := &rs.Rules[i]
		if r.Name == "" {
			return fmt.Errorf("metrics: rule %d has no name", i)
		}
		if seen[r.Name] {
			return fmt.Errorf("metrics: duplicate rule name %q", r.Name)
		}
		seen[r.Name] = true
		if r.Series == "" {
			return fmt.Errorf("metrics: rule %q names no series", r.Name)
		}
		switch r.Op {
		case ">", ">=", "<", "<=":
		default:
			return fmt.Errorf("metrics: rule %q has unknown op %q (want >, >=, < or <=)", r.Name, r.Op)
		}
		if r.For <= 0 {
			r.For = 1
		}
	}
	return nil
}

// ParseRules decodes and validates a JSON rule file.
func ParseRules(data []byte) (*RuleSet, error) {
	// Strict about keys, so that some other JSON file is not "no rules".
	rs := &RuleSet{}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(rs); err != nil {
		return nil, fmt.Errorf("metrics: parsing rules: %w", err)
	}
	if dec.More() {
		return nil, fmt.Errorf("metrics: parsing rules: data after the rule set")
	}
	if err := rs.Validate(); err != nil {
		return nil, err
	}
	return rs, nil
}

// LoadRules reads the rule file a tool's -rules flag names; no path is no
// rules.
func LoadRules(path string) (*RuleSet, error) {
	if path == "" {
		return nil, nil
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("metrics: reading rules: %w", err)
	}
	rs, err := ParseRules(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return rs, nil
}

// Alert is one fire/resolve decision, identical between the live and
// trace-derived paths (the live path additionally emits a trace event whose
// Seq interleaves with the stream).
type Alert struct {
	// Rule and Series identify the (rule, series) instance.
	Rule   string `json:"rule"`
	Series string `json:"series"`
	// Window is the sealed window the decision was made at; Time is that
	// window's end.
	Window int     `json:"window"`
	Time   float64 `json:"time"`
	// Resolved distinguishes the resolve record from the fire record.
	Resolved bool `json:"resolved,omitempty"`
	// Value is the window's series value: the breaching value when firing,
	// the first clear value when resolving.
	Value float64 `json:"value"`
	// Cause is the Seq of the last stream event inside the decided window
	// when firing (trace.None when the window was empty or when resolving):
	// the causal anchor the emitted event carries.
	Cause int `json:"cause"`
}

// alertState tracks one (rule, series) instance between seals.
type alertState struct {
	streak   int
	fired    bool
	firedSeq int // live Seq of the fired event, for the resolve edge
}

// tenantOf extracts the tenant from a per-tenant series key, for the
// Tenant field of emitted alert events.
func tenantOf(key string) string {
	if !strings.HasPrefix(key, "tenant-") {
		return ""
	}
	if i := strings.LastIndex(key, ":"); i >= 0 {
		return key[i+1:]
	}
	return ""
}

// seal evaluates every rule against window w. Series are visited in sorted
// key order and rules in file order, so the decision sequence — and the Seq
// of every live-emitted alert event — is deterministic.
func (c *Collector) seal(w int) {
	if c.cfg.Rules == nil || len(c.cfg.Rules.Rules) == 0 {
		return
	}
	rules := c.cfg.Rules.Rules
	for i := range rules {
		r := &rules[i]
		for _, s := range c.sortedSeries() {
			key := s.key
			if !r.matches(key) {
				continue
			}
			if s.alerts == nil {
				s.alerts = make([]alertState, len(rules))
			}
			st := &s.alerts[i]
			v := s.value(w, c.cfg.Window)
			if r.breach(v) {
				st.streak++
				if !st.fired && st.streak >= r.For {
					st.fired = true
					st.firedSeq = c.decide(r, key, w, v, false, trace.None)
				}
			} else {
				st.streak = 0
				if st.fired {
					st.fired = false
					c.decide(r, key, w, v, true, st.firedSeq)
					st.firedSeq = trace.None
				}
			}
		}
	}
}

// decide records one alert transition and, on the live path, emits the
// matching trace event; it returns the emitted Seq (trace.None offline).
func (c *Collector) decide(r *Rule, key string, w int, v float64, resolved bool, firedSeq int) int {
	start := float64(float64(w) * c.cfg.Window) // rounded: no fused multiply-add (DESIGN.md)
	end := start + c.cfg.Window
	cause := trace.None
	if !resolved && w < len(c.lastSeq) {
		cause = c.lastSeq[w]
	}
	c.alerts = append(c.alerts, Alert{
		Rule: r.Name, Series: key, Window: w, Time: end,
		Resolved: resolved, Value: v, Cause: cause,
	})
	if c.emit == nil {
		return trace.None
	}
	kind := trace.KindAlertFired
	evCause := cause
	if resolved {
		kind = trace.KindAlertResolved
		evCause = firedSeq
	}
	return c.emit(trace.Event{
		Kind: kind, Name: r.Name + "@" + key, Tenant: tenantOf(key),
		Cause: evCause, Machine: trace.None, Dst: trace.None, Part: trace.None,
		Time: end, Start: start, End: end,
	})
}
