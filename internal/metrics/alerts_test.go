package metrics_test

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/metrics"
	"repro/internal/trace"
)

// emitBusy emits a transfer keeping the 0→1 link busy for [t0, t1) into
// rec (Seq handled by the recorder).
func emitBusy(rec *trace.Recorder, t0, t1 float64) {
	rec.Emit(trace.Event{Kind: trace.KindTransfer, Cause: trace.None,
		Machine: 0, Dst: 1, Part: trace.None, Bytes: 1000,
		Time: t0, Start: t0, End: t1})
}

// tick emits a zero-span marker advancing the stream clock to t.
func tick(rec *trace.Recorder, t float64) {
	rec.Emit(trace.Event{Kind: trace.KindStageBegin, Cause: trace.None,
		Machine: trace.None, Dst: trace.None, Part: trace.None, Time: t})
}

// TestAlertLifecycle drives a synthetic saturation plateau through a
// for-3-windows rule: the alert fires at the third consecutive breaching
// seal, stays quiet while breaching continues, and resolves on the first
// clear window.
func TestAlertLifecycle(t *testing.T) {
	rules := &metrics.RuleSet{Rules: []metrics.Rule{
		{Name: "hot", Series: "link-util:0>1", Op: ">", Threshold: 0.9, For: 3},
	}}
	rec := trace.NewRecorder()
	col, err := metrics.NewCollector(metrics.Config{Window: 1, Rules: rules})
	if err != nil {
		t.Fatal(err)
	}
	col.Attach(rec)
	// Windows 0..4 fully busy, then idle through window 8.
	for w := 0; w < 5; w++ {
		emitBusy(rec, float64(w), float64(w+1))
	}
	for w := 5; w < 9; w++ {
		tick(rec, float64(w+1))
	}
	col.Finish()

	alerts := col.Alerts()
	if len(alerts) != 2 {
		t.Fatalf("alerts = %+v, want fire+resolve", alerts)
	}
	fire, res := alerts[0], alerts[1]
	if fire.Resolved || fire.Rule != "hot" || fire.Series != "link-util:0>1" {
		t.Fatalf("first alert = %+v, want a fire of hot", fire)
	}
	// Breaches seal at windows 0,1,2 → the for-3 rule fires at window 2.
	if fire.Window != 2 || fire.Time != 3 {
		t.Fatalf("fired at window %d (t=%g), want window 2 (t=3)", fire.Window, fire.Time)
	}
	if fire.Value != 1 {
		t.Fatalf("fire value = %g, want 1", fire.Value)
	}
	if !res.Resolved || res.Window != 5 || res.Time != 6 {
		t.Fatalf("resolve = %+v, want window 5 (t=6)", res)
	}

	// The live stream carries the matching events with causal edges.
	var fireEv, resEv *trace.Event
	events := rec.Events()
	for i := range events {
		switch events[i].Kind {
		case trace.KindAlertFired:
			fireEv = &events[i]
		case trace.KindAlertResolved:
			resEv = &events[i]
		}
	}
	if fireEv == nil || resEv == nil {
		t.Fatal("live stream missing alert events")
	}
	if fireEv.Name != "hot@link-util:0>1" || resEv.Name != fireEv.Name {
		t.Fatalf("event names %q / %q", fireEv.Name, resEv.Name)
	}
	if fireEv.Cause == trace.None || events[fireEv.Cause].Time >= fireEv.Time {
		t.Fatalf("fire cause %d not inside the breaching window", fireEv.Cause)
	}
	if resEv.Cause != fireEv.Seq {
		t.Fatalf("resolve cause %d, want the fire's seq %d", resEv.Cause, fireEv.Seq)
	}
}

// TestAlertPatternRulesMatchFamilies: a trailing-* rule instantiates per
// matching series and the Tenant field rides on tenant alerts.
func TestAlertPatternRulesMatchFamilies(t *testing.T) {
	rules := &metrics.RuleSet{Rules: []metrics.Rule{
		{Name: "wait", Series: "tenant-wait-p99:*", Op: ">", Threshold: 0.5},
	}}
	rec := trace.NewRecorder()
	col, err := metrics.NewCollector(metrics.Config{Window: 1, Rules: rules})
	if err != nil {
		t.Fatal(err)
	}
	col.Attach(rec)
	// Tenant "acme" queues at 0 and admits at 0.9 (wait 0.9 > 0.5);
	// tenant "zen" waits only 0.1.
	rec.Emit(trace.Event{Kind: trace.KindJobQueued, Job: "a", Tenant: "acme",
		Cause: trace.None, Machine: trace.None, Dst: trace.None, Part: trace.None, Time: 0})
	rec.Emit(trace.Event{Kind: trace.KindJobQueued, Job: "z", Tenant: "zen",
		Cause: trace.None, Machine: trace.None, Dst: trace.None, Part: trace.None, Time: 0.4})
	rec.Emit(trace.Event{Kind: trace.KindJobAdmitted, Job: "z", Tenant: "zen",
		Cause: trace.None, Machine: trace.None, Dst: trace.None, Part: trace.None, Time: 0.5})
	rec.Emit(trace.Event{Kind: trace.KindJobAdmitted, Job: "a", Tenant: "acme",
		Cause: trace.None, Machine: trace.None, Dst: trace.None, Part: trace.None, Time: 0.9})
	tick(rec, 3)
	col.Finish()

	var fired []metrics.Alert
	for _, al := range col.Alerts() {
		if !al.Resolved {
			fired = append(fired, al)
		}
	}
	if len(fired) != 1 || fired[0].Series != "tenant-wait-p99:acme" {
		t.Fatalf("fired = %+v, want exactly tenant-wait-p99:acme", fired)
	}
	for _, ev := range rec.Events() {
		if ev.Kind == trace.KindAlertFired && ev.Tenant != "acme" {
			t.Fatalf("alert event tenant = %q, want acme", ev.Tenant)
		}
	}
}

func TestRuleValidation(t *testing.T) {
	cases := []struct {
		name string
		json string
		want string // substring of the error; "" = valid
	}{
		{"valid", `{"rules":[{"name":"a","series":"s","op":">","threshold":1}]}`, ""},
		{"bad op", `{"rules":[{"name":"a","series":"s","op":"!=","threshold":1}]}`, "unknown op"},
		{"no name", `{"rules":[{"series":"s","op":">","threshold":1}]}`, "no name"},
		{"dup name", `{"rules":[{"name":"a","series":"s","op":">"},{"name":"a","series":"t","op":"<"}]}`, "duplicate"},
		{"no series", `{"rules":[{"name":"a","op":">"}]}`, "names no series"},
		{"garbage", `{"rules": 7}`, "parsing rules"},
	}
	for _, tc := range cases {
		rs, err := metrics.ParseRules([]byte(tc.json))
		if tc.want == "" {
			if err != nil {
				t.Fatalf("%s: unexpected error %v", tc.name, err)
			}
			if rs.Rules[0].For != 1 {
				t.Fatalf("%s: For defaulted to %d, want 1", tc.name, rs.Rules[0].For)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("%s: error %v, want %q", tc.name, err, tc.want)
		}
	}
}

// TestLoadRulesAndAutoWindow: the two things every tool used to do by hand.
// No path is no rules, a good file is its ParseRules, and a missing or
// malformed one is an error naming the file; the automatic window is a
// thirty-second of the stream clock, which a drain's far deadline (End) does
// not stretch.
func TestLoadRulesAndAutoWindow(t *testing.T) {
	if rs, err := metrics.LoadRules(""); rs != nil || err != nil {
		t.Fatalf(`LoadRules("") = %v, %v`, rs, err)
	}
	dir := t.TempDir()
	good, bad, missing := filepath.Join(dir, "good.json"), filepath.Join(dir, "bad.json"), filepath.Join(dir, "missing.json")
	for path, body := range map[string]string{
		good: `{"rules":[{"name":"a","series":"s","op":">","threshold":1}]}`,
		bad:  `{"rules":[{"name":"a","series":"s","op":"!="}]}`,
	} {
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if rs, err := metrics.LoadRules(good); err != nil || len(rs.Rules) != 1 || rs.Rules[0].For != 1 {
		t.Fatalf("LoadRules(good) = %+v, %v", rs, err)
	}
	for path, want := range map[string]string{bad: "unknown op", missing: "no such file"} {
		if _, err := metrics.LoadRules(path); err == nil || !strings.Contains(err.Error(), path) || !strings.Contains(err.Error(), want) {
			t.Errorf("LoadRules(%s) = %v, want an error naming the file and %q", path, err, want)
		}
	}

	rec := trace.NewRecorder()
	tick(rec, 1)
	rec.Emit(trace.Event{Kind: trace.KindMachineDrain, Cause: trace.None, Machine: 1, Dst: trace.None, Part: trace.None, Time: 2, End: 1e6})
	tick(rec, 3.2)
	if got := metrics.AutoWindow(rec.Events()); got != 0.1 {
		t.Errorf("AutoWindow = %g, want 0.1", got)
	}
	if got := metrics.AutoWindow(nil); got != 0 {
		t.Errorf("AutoWindow of no events = %g, want 0", got)
	}
}

// TestSealLagHidesLateSpans: a window's alert decision sees only what had
// arrived when it sealed, but the exported series still carries the late
// span — the documented scrape-delay semantics.
func TestSealLagHidesLateSpans(t *testing.T) {
	rules := &metrics.RuleSet{Rules: []metrics.Rule{
		{Name: "busy", Series: "machine-tasks:0", Op: ">", Threshold: 0.5},
	}}
	rec := trace.NewRecorder()
	col, err := metrics.NewCollector(metrics.Config{Window: 1, Rules: rules})
	if err != nil {
		t.Fatal(err)
	}
	col.Attach(rec)
	// Clock runs to t=9 first, sealing windows 0..7 while they look empty;
	// then a long task whose span reaches back to t=0 lands.
	tick(rec, 9)
	rec.Emit(trace.Event{Kind: trace.KindTaskEnd, Name: "late", Cause: trace.None,
		Machine: 0, Dst: trace.None, Part: trace.None, Time: 9, Start: 0, End: 9})
	set := col.Finish()
	// Only window 8 — sealed by Finish, after the span landed — fires; the
	// eight earlier windows were already judged empty.
	alerts := col.Alerts()
	if len(alerts) != 1 || alerts[0].Resolved || alerts[0].Window != 8 {
		t.Fatalf("alerts = %+v, want a single fire at window 8", alerts)
	}
	s := set.Lookup("machine-tasks:0")
	if s == nil {
		t.Fatal("series missing")
	}
	for w := 0; w < 9; w++ {
		if s.Values[w] != 1 {
			t.Fatalf("window %d = %g, want the late span exported", w, s.Values[w])
		}
	}
}
