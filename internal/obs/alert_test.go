package obs

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
	"time"
)

func TestParseRule(t *testing.T) {
	r, err := ParseRule("budget:total_energy_j>1.5e6:for=30s")
	if err != nil {
		t.Fatal(err)
	}
	want := Rule{Name: "budget", Signal: "total_energy_j", Op: ">", Threshold: 1.5e6, For: 30 * time.Second}
	if r != want {
		t.Fatalf("got %+v, want %+v", r, want)
	}
	if got := r.String(); got != "budget:total_energy_j>1.5e+06:for=30s" {
		t.Fatalf("String() = %q", got)
	}
	if rt, err := ParseRule(r.String()); err != nil || rt != r {
		t.Fatalf("String() round-trip: %v, %+v", err, rt)
	}

	r, err = ParseRule("hot:rate(spin_ups)>=0.25")
	if err != nil {
		t.Fatal(err)
	}
	if !r.Rate || r.Signal != "spin_ups" || r.Op != ">=" || r.Threshold != 0.25 || r.For != 0 {
		t.Fatalf("rate rule parsed as %+v", r)
	}

	r, err = ParseRule("carbon:fleet_total_kgco2>100")
	if err != nil {
		t.Fatal(err)
	}
	if !r.FleetSignal() {
		t.Fatalf("fleet_total_kgco2 not recognised as a fleet signal")
	}

	if _, err := ParseRule("enc-idle:enc3_idle_s>=120"); err != nil {
		t.Fatalf("enclosure-column rule rejected: %v", err)
	}

	for _, bad := range []string{
		"",
		"noname",
		":total_energy_j>1",
		"x:nosuchsignal>1",
		"x:total_energy_j!1",
		"x:total_energy_j>abc",
		"x:total_energy_j>1:for=xyz",
		"x:total_energy_j>1:for=-3s",
		"x:total_energy_j>1:hold=3s",
		"x:rate(total_energy_j>1",
		"bad name:total_energy_j>1",
	} {
		if _, err := ParseRule(bad); err == nil {
			t.Errorf("ParseRule(%q) accepted", bad)
		}
	}

	if _, err := ParseRules([]string{"a:faults>0", "a:spin_ups>1"}); err == nil {
		t.Error("duplicate rule names accepted")
	}
	rules, err := ParseRuleList(" a:faults>0 , b:spin_ups>1 ")
	if err != nil || len(rules) != 2 {
		t.Fatalf("ParseRuleList: %v, %d rules", err, len(rules))
	}
	if rules, err := ParseRuleList(""); err != nil || rules != nil {
		t.Fatalf("empty list: %v, %v", err, rules)
	}
}

func TestWatchdogLifecycle(t *testing.T) {
	var log bytes.Buffer
	rec := New(Options{Log: &log})
	reg := NewRegistry()
	w := NewWatchdog(WatchdogOptions{
		Rules: []Rule{
			{Name: "energy", Signal: "total_energy_j", Op: ">", Threshold: 100, For: 20 * time.Second},
			{Name: "spin", Signal: "spin_ups", Rate: true, Op: ">", Threshold: 0.5},
		},
		Recorder: rec,
		Registry: reg,
	})

	at := func(sec int, energy float64, spins int) {
		Telemetry{Alerts: w}.Sample(FlightSample{T: time.Duration(sec) * time.Second, TotalEnergyJ: energy, SpinUps: spins}, false)
	}
	at(0, 0, 0)    // both inactive; rate has no derivative yet
	at(10, 50, 1)  // energy below; rate 0.1/s
	at(20, 150, 9) // energy pending; rate 0.8/s -> spin pending+firing (For=0)
	at(30, 160, 9) // energy still pending (held 10s); spin resolves (rate 0)
	at(40, 170, 9) // energy fires (held 20s)
	at(50, 90, 9)  // impossible for cumulative energy, but exercises resolve

	st := w.States()
	if len(st) != 2 {
		t.Fatalf("States() returned %d rules", len(st))
	}
	if st[0].State != AlertResolved || st[1].State != AlertResolved {
		t.Fatalf("end states = %s, %s; want resolved, resolved", st[0].State, st[1].State)
	}
	if st[0].Fired != 1 || st[1].Fired != 1 {
		t.Fatalf("fired counts = %d, %d; want 1, 1", st[0].Fired, st[1].Fired)
	}

	sum := w.Summary()
	if sum.Rules != 2 || sum.Firing != 0 || sum.Fired != 2 {
		t.Fatalf("summary = %+v", sum)
	}

	// The transition sequence must be the full lifecycle, in order,
	// for each rule.
	var got []string
	for _, ev := range logged(t, rec, &log) {
		if ev.Type != EvAlert {
			t.Fatalf("unexpected event type %s", ev.Type)
		}
		got = append(got, ev.Alert.Rule+":"+ev.Alert.Prev+">"+ev.Alert.State)
	}
	want := []string{
		"energy:inactive>pending",
		"spin:inactive>pending", "spin:pending>firing",
		"spin:firing>resolved",
		"energy:pending>firing",
		"energy:firing>resolved",
	}
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Fatalf("transitions:\n got %v\nwant %v", got, want)
	}

	var buf strings.Builder
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, line := range []string{
		`esm_alerts{rule="energy",state="resolved"} 1`,
		`esm_alerts{rule="energy",state="firing"} 0`,
		`esm_alert_transitions_total{rule="spin"} 3`,
	} {
		if !strings.Contains(out, line) {
			t.Errorf("registry output missing %q", line)
		}
	}
}

func TestWatchdogForWindowNeverHeld(t *testing.T) {
	w := NewWatchdog(WatchdogOptions{Rules: []Rule{
		{Name: "flap", Signal: "faults", Op: ">", Threshold: 0, For: time.Minute},
	}})
	Telemetry{Alerts: w}.Sample(FlightSample{T: 0, Faults: 1}, false)
	Telemetry{Alerts: w}.Sample(FlightSample{T: 30 * time.Second, Faults: 0}, false)
	Telemetry{Alerts: w}.Sample(FlightSample{T: 60 * time.Second, Faults: 1}, false)
	Telemetry{Alerts: w}.Sample(FlightSample{T: 90 * time.Second, Faults: 0}, false)
	st := w.States()[0]
	if st.State != AlertInactive || st.Fired != 0 {
		t.Fatalf("flapping rule ended %s with %d fires; want inactive, 0", st.State, st.Fired)
	}
	if st.Transitions != 4 {
		t.Fatalf("transitions = %d, want 4 (two pending, two back to inactive)", st.Transitions)
	}
}

func TestWatchdogObserveSignal(t *testing.T) {
	w := NewWatchdog(WatchdogOptions{Rules: []Rule{
		{Name: "deg", Signal: "degraded", Op: ">=", Threshold: 1},
		{Name: "other", Signal: "faults", Op: ">", Threshold: 0},
	}})
	w.ObserveSignal(5*time.Second, "degraded", 1)
	st := w.States()
	if st[0].State != AlertFiring {
		t.Fatalf("degraded rule = %s, want firing", st[0].State)
	}
	if st[1].State != AlertInactive {
		t.Fatalf("unrelated rule moved to %s", st[1].State)
	}
	w.ObserveSignal(9*time.Second, "degraded", 0)
	if st := w.States(); st[0].State != AlertResolved {
		t.Fatalf("degraded rule = %s, want resolved", st[0].State)
	}
}

func TestWatchdogObserveValues(t *testing.T) {
	w := NewWatchdog(WatchdogOptions{Rules: []Rule{
		{Name: "cost", Signal: "fleet_cost_usd", Op: ">", Threshold: 10},
	}})
	w.ObserveValues(time.Second, map[string]float64{"fleet_cost_usd": 5})
	if st := w.States()[0]; st.State != AlertInactive {
		t.Fatalf("below budget fired: %s", st.State)
	}
	w.ObserveValues(2*time.Second, map[string]float64{"fleet_cost_usd": 15})
	if st := w.States()[0]; st.State != AlertFiring {
		t.Fatalf("over budget = %s, want firing", st.State)
	}
}

// TestWatchdogReadsFlightColumns pins the shared column mapping: a
// rule on any flight column evaluates exactly the value the flight
// recorder stores for that column, and a rule on an enclosure beyond
// the sample's is skipped.
func TestWatchdogReadsFlightColumns(t *testing.T) {
	s := sampleAt(37, 2)
	s.ClassCounts = [4]int{4, 3, 2, 1}
	f := NewFlightRecorder(0)
	Telemetry{Flight: f}.Sample(s, false)
	series := f.Series()
	var rules []Rule
	for c, col := range series.Cols {
		rules = append(rules, Rule{Name: fmt.Sprintf("r%d", c), Signal: col, Op: ">=", Threshold: -1})
	}
	rules = append(rules, Rule{Name: "beyond", Signal: "enc2_state", Op: ">=", Threshold: -1})
	wd := NewWatchdog(WatchdogOptions{Rules: rules})
	Telemetry{Alerts: wd}.Sample(s, false)
	states := wd.States()
	for c, col := range series.Cols {
		if got, want := states[c].Value, series.Values[c][0]; got != want || states[c].State != AlertFiring {
			t.Errorf("%s: watchdog read %v (%s), flight recorder stored %v", col, got, states[c].State, want)
		}
	}
	if st := states[len(series.Cols)]; st.State != AlertInactive {
		t.Errorf("rule on an absent enclosure was evaluated: %+v", st)
	}
}

// TestNilWatchdogAllocationFree pins the off path: sampling into a nil
// watchdog must not allocate (the acceptance-criteria twin of the
// BenchmarkTelemetryOverhead watchdog-off variant).
func TestNilWatchdogAllocationFree(t *testing.T) {
	var w *Watchdog
	s := FlightSample{T: time.Second, TotalEnergyJ: 42}
	if n := testing.AllocsPerRun(100, func() {
		Telemetry{Alerts: w}.Sample(s, false)
		w.ObserveSignal(s.T, "degraded", 1)
	}); n != 0 {
		t.Fatalf("nil watchdog allocated %.1f/op", n)
	}
	// A live watchdog with no recorder transitions without building an
	// alert record for the decision log.
	rules, err := ParseRules([]string{"degraded:degraded>=1"})
	if err != nil {
		t.Fatal(err)
	}
	live := NewWatchdog(WatchdogOptions{Rules: rules})
	at := time.Second
	if n := testing.AllocsPerRun(100, func() {
		at += time.Second
		live.ObserveSignal(at, "degraded", 1)
		at += time.Second
		live.ObserveSignal(at, "degraded", 0)
	}); n != 0 {
		t.Fatalf("recorder-less watchdog allocated %.1f/op", n)
	}
	if sum := live.Summary(); sum.Fired < 100 {
		t.Fatalf("rule fired %d times, the gate measured no transitions", sum.Fired)
	}
	if w.States() != nil {
		t.Fatal("nil watchdog returned non-nil state")
	}
	if w.Summary() != (AlertSummary{}) {
		t.Fatal("nil watchdog summary not zero")
	}
	if NewWatchdog(WatchdogOptions{}) != nil {
		t.Fatal("NewWatchdog with no rules should return nil")
	}
}

func TestVersionString(t *testing.T) {
	if s := VersionString("esmstat"); !strings.HasPrefix(s, "esmstat ") || !strings.Contains(s, "go1") {
		t.Fatalf("VersionString = %q", s)
	}
	reg := NewRegistry()
	RegisterBuildInfo(reg)
	var buf strings.Builder
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "esm_build_info{") {
		t.Fatalf("registry output missing esm_build_info: %s", buf.String())
	}
}
