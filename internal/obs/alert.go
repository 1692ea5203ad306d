// The alert engine: a Watchdog evaluating declarative threshold rules
// against flight-recorder samples on the simulated clock. Like the
// Recorder, Tracer and FlightRecorder, a nil *Watchdog is a valid
// disabled instance — every method nil-checks its receiver, so the hot
// path pays one pointer comparison when alerting is off.
//
// Rules are evaluated only at deterministic simulated-time points (the
// flight-sampling grid plus explicit policy bridges like the degrade
// transition), and alert events are emitted through the run's Recorder
// so they share its sequence counter. That makes the alert stream
// byte-identical across reruns, like every other output of the
// simulator.

package obs

import (
	"fmt"
	"strconv"
	"strings"
	"sync"
	"time"
)

// AlertState is one phase of a rule's lifecycle. A rule starts
// inactive; when its condition first holds it turns pending; when the
// condition has held for the rule's for-duration it fires; when the
// condition stops holding, a firing rule resolves (and a pending one
// falls back to inactive). A resolved rule re-enters pending if the
// condition returns.
type AlertState string

// The alert lifecycle.
const (
	AlertInactive AlertState = "inactive"
	AlertPending  AlertState = "pending"
	AlertFiring   AlertState = "firing"
	AlertResolved AlertState = "resolved"
)

// alertStates lists every lifecycle state in a fixed order, so per-rule
// gauge updates never depend on map iteration.
var alertStates = [...]AlertState{AlertInactive, AlertPending, AlertFiring, AlertResolved}

// Rule is one declarative alert condition over a named signal. The
// signal vocabulary is the flight recorder's column set (scalarCols
// plus the enc<i>_* columns) for per-array rules, and the fleet_*
// roll-up totals for fleet-wide budget rules.
type Rule struct {
	// Name identifies the rule in events, metrics and reports.
	Name string `json:"name"`
	// Signal names the observed series column.
	Signal string `json:"signal"`
	// Rate, when true, compares the per-second derivative between
	// consecutive observations instead of the raw value.
	Rate bool `json:"rate,omitempty"`
	// Op is ">", ">=", "<" or "<=".
	Op string `json:"op"`
	// Threshold is the right-hand side of the comparison.
	Threshold float64 `json:"threshold"`
	// For is how long the condition must hold before the rule fires.
	// Zero fires on the first true evaluation.
	For time.Duration `json:"for_ns,omitempty"`
}

// String renders the rule in the spec grammar ParseRule accepts.
func (r Rule) String() string {
	var b strings.Builder
	b.WriteString(r.Name)
	b.WriteByte(':')
	if r.Rate {
		fmt.Fprintf(&b, "rate(%s)", r.Signal)
	} else {
		b.WriteString(r.Signal)
	}
	b.WriteString(r.Op)
	b.WriteString(strconv.FormatFloat(r.Threshold, 'g', -1, 64))
	if r.For > 0 {
		fmt.Fprintf(&b, ":for=%s", r.For)
	}
	return b.String()
}

// holds reports whether value v satisfies the rule's comparison.
func (r Rule) holds(v float64) bool {
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

// fleetSignals is the fleet-wide budget vocabulary: the /fleet roll-up
// totals, observed by the fleet's own watchdog via ObserveValues.
var fleetSignals = []string{
	"fleet_metered_j", "fleet_facility_j", "fleet_facility_kwh",
	"fleet_cost_usd", "fleet_operational_kgco2", "fleet_embodied_kgco2",
	"fleet_total_kgco2", "fleet_stored_tb", "fleet_records", "fleet_spin_ups",
}

// KnownSignal reports whether name is in the rule vocabulary: a flight
// recorder scalar column, a per-enclosure enc<i>_{state,used_b,idle_s}
// column, or a fleet_* roll-up total.
func KnownSignal(name string) bool {
	if flightCol(name) >= 0 {
		return true
	}
	for _, c := range fleetSignals {
		if name == c {
			return true
		}
	}
	return false
}

// FleetSignal reports whether the rule reads a fleet_* roll-up total
// (and therefore belongs on the fleet-wide watchdog, not an array's).
func (r Rule) FleetSignal() bool { return strings.HasPrefix(r.Signal, "fleet_") }

// ParseRule parses one rule spec. The grammar is
//
//	name:condition[:for=DURATION]
//
// where condition is "signal OP threshold" without spaces — e.g.
// "budget:total_energy_j>1.5e6:for=30s" or "hot:rate(spin_ups)>=0.2".
// OP is >, >=, < or <=; rate(signal) compares the per-second
// derivative between consecutive samples instead of the raw value.
func ParseRule(spec string) (Rule, error) {
	parts := strings.Split(spec, ":")
	if len(parts) < 2 || len(parts) > 3 {
		return Rule{}, fmt.Errorf("obs: alert spec %q: want name:condition[:for=DURATION]", spec)
	}
	var r Rule
	r.Name = strings.TrimSpace(parts[0])
	if r.Name == "" {
		return Rule{}, fmt.Errorf("obs: alert spec %q: empty rule name", spec)
	}
	if strings.ContainsAny(r.Name, " \t\"{}=,") {
		return Rule{}, fmt.Errorf("obs: alert spec %q: rule name %q has reserved characters", spec, r.Name)
	}
	cond := strings.TrimSpace(parts[1])
	opAt := strings.IndexAny(cond, "<>")
	if opAt < 0 {
		return Rule{}, fmt.Errorf("obs: alert spec %q: condition %q has no comparison operator", spec, cond)
	}
	r.Op = cond[opAt : opAt+1]
	rhs := cond[opAt+1:]
	if strings.HasPrefix(rhs, "=") {
		r.Op += "="
		rhs = rhs[1:]
	}
	lhs := strings.TrimSpace(cond[:opAt])
	if inner, ok := strings.CutPrefix(lhs, "rate("); ok {
		if !strings.HasSuffix(inner, ")") {
			return Rule{}, fmt.Errorf("obs: alert spec %q: unclosed rate(...)", spec)
		}
		r.Rate = true
		lhs = strings.TrimSpace(strings.TrimSuffix(inner, ")"))
	}
	if lhs == "" {
		return Rule{}, fmt.Errorf("obs: alert spec %q: empty signal", spec)
	}
	if !KnownSignal(lhs) {
		return Rule{}, fmt.Errorf("obs: alert spec %q: unknown signal %q", spec, lhs)
	}
	r.Signal = lhs
	thr, err := strconv.ParseFloat(strings.TrimSpace(rhs), 64)
	if err != nil {
		return Rule{}, fmt.Errorf("obs: alert spec %q: threshold %q: %v", spec, rhs, err)
	}
	r.Threshold = thr
	if len(parts) == 3 {
		f := strings.TrimSpace(parts[2])
		v, ok := strings.CutPrefix(f, "for=")
		if !ok {
			return Rule{}, fmt.Errorf("obs: alert spec %q: want for=DURATION, got %q", spec, f)
		}
		d, err := time.ParseDuration(v)
		if err != nil {
			return Rule{}, fmt.Errorf("obs: alert spec %q: %v", spec, err)
		}
		if d < 0 {
			return Rule{}, fmt.Errorf("obs: alert spec %q: negative for-duration", spec)
		}
		r.For = d
	}
	return r, nil
}

// ParseRules parses a slice of rule specs, rejecting duplicate names.
func ParseRules(specs []string) ([]Rule, error) {
	var out []Rule
	seen := make(map[string]bool, len(specs))
	for _, spec := range specs {
		r, err := ParseRule(spec)
		if err != nil {
			return nil, err
		}
		if seen[r.Name] {
			return nil, fmt.Errorf("obs: duplicate alert rule name %q", r.Name)
		}
		seen[r.Name] = true
		out = append(out, r)
	}
	return out, nil
}

// ParseRuleList parses a comma-separated spec list (the -alerts flag
// form). An empty string yields no rules.
func ParseRuleList(s string) ([]Rule, error) {
	var specs []string
	for _, f := range strings.Split(s, ",") {
		if f = strings.TrimSpace(f); f != "" {
			specs = append(specs, f)
		}
	}
	return ParseRules(specs)
}

// WatchdogOptions configures a Watchdog. Rules is required; everything
// else is optional.
type WatchdogOptions struct {
	// Rules is the evaluated rule set, in evaluation order.
	Rules []Rule
	// Recorder, when non-nil, receives one typed alert event per state
	// transition, sharing the run's sequence counter.
	Recorder *Recorder
	// Registry, when non-nil, is populated with per-rule
	// esm_alerts{rule,state} gauges and esm_alert_transitions_total
	// counters.
	Registry *Registry
	// Instance, when non-empty, namespaces the registry instruments
	// with an array="<instance>" label (fleet use).
	Instance string
}

// ruleState is one rule's live evaluation state.
type ruleState struct {
	rule  Rule
	state AlertState
	// col is the rule signal's flight column index, -1 for a fleet_*
	// signal.
	col int
	// sinceNS is when the current state was entered; condSince when the
	// current condition-true streak began.
	sinceNS   int64
	condSince time.Duration
	// value is the last evaluated value (the derivative for rate rules).
	value float64
	// rate-derivative bookkeeping.
	haveLast bool
	lastT    time.Duration
	lastV    float64

	transitions int64
	fired       int64

	gauges      [len(alertStates)]*Gauge
	cTransition *Counter
}

// Watchdog evaluates alert rules at deterministic simulated-time
// points. All methods are safe on a nil receiver (no-ops) and safe for
// concurrent use.
type Watchdog struct {
	mu    sync.Mutex
	rules []*ruleState
	rec   *Recorder
	row   []float64 // scratch flight row, reused across samples

	transitions int64
	fired       int64
}

// NewWatchdog returns a live watchdog. Returns nil when opts.Rules is
// empty, so callers can wire the result unconditionally.
func NewWatchdog(opts WatchdogOptions) *Watchdog {
	if len(opts.Rules) == 0 {
		return nil
	}
	w := &Watchdog{rec: opts.Recorder}
	for _, r := range opts.Rules {
		rs := &ruleState{rule: r, state: AlertInactive, col: flightCol(r.Signal)}
		if reg := opts.Registry; reg != nil {
			name := func(n string) string {
				n = WithLabel(n, "rule", r.Name)
				if opts.Instance != "" {
					n = WithLabel(n, "array", opts.Instance)
				}
				return n
			}
			for i, st := range alertStates {
				g := reg.Gauge(WithLabel(name("esm_alerts"), "state", string(st)),
					"1 while the alert rule is in this lifecycle state, else 0.")
				if st == AlertInactive {
					g.Set(1)
				}
				rs.gauges[i] = g
			}
			rs.cTransition = reg.Counter(name("esm_alert_transitions_total"),
				"Alert-rule lifecycle transitions.")
		}
		w.rules = append(w.rules, rs)
	}
	return w
}

// Enabled reports whether the watchdog is live.
func (w *Watchdog) Enabled() bool { return w != nil }

// Rules returns the evaluated rule set in evaluation order (nil for a
// nil watchdog).
func (w *Watchdog) Rules() []Rule {
	if w == nil {
		return nil
	}
	out := make([]Rule, len(w.rules))
	for i, rs := range w.rules {
		out[i] = rs.rule
	}
	return out
}

// Observe evaluates every rule against one flight sample at its
// simulated time. Rules whose signal the sample cannot provide (fleet
// signals, out-of-range enclosures) are skipped.
func (w *Watchdog) Observe(s FlightSample) {
	if w == nil {
		return
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	w.row = appendFlightRow(w.row[:0], s, len(s.Enclosures))
	for _, rs := range w.rules {
		if rs.col >= 0 && rs.col < len(w.row) {
			w.evalLocked(rs, s.T, w.row[rs.col])
		}
	}
}

// Final evaluates the run's closing sample. It is Observe under a name
// that marks the call site: drivers pair it with FlightRecorder.Final.
func (w *Watchdog) Final(s FlightSample) { w.Observe(s) }

// ObserveSignal evaluates only the rules reading the named signal —
// the policy bridge for instantaneous transitions (the ESM degrade
// flag) that should alert without waiting for the next sample.
func (w *Watchdog) ObserveSignal(t time.Duration, signal string, v float64) {
	if w == nil {
		return
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	for _, rs := range w.rules {
		if rs.rule.Signal == signal {
			w.evalLocked(rs, t, v)
		}
	}
}

// ObserveValues evaluates rules against a named-value map — the fleet
// roll-up path, where signals are not flight-sample columns. Rules
// whose signal is absent from the map are skipped.
func (w *Watchdog) ObserveValues(t time.Duration, vals map[string]float64) {
	if w == nil {
		return
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	for _, rs := range w.rules {
		if v, ok := vals[rs.rule.Signal]; ok {
			w.evalLocked(rs, t, v)
		}
	}
}

// evalLocked evaluates one rule at time t with raw signal value raw,
// advancing the lifecycle. Caller holds w.mu.
func (w *Watchdog) evalLocked(rs *ruleState, t time.Duration, raw float64) {
	v := raw
	if rs.rule.Rate {
		if !rs.haveLast {
			rs.haveLast, rs.lastT, rs.lastV = true, t, raw
			return // no derivative yet
		}
		if t == rs.lastT {
			return // same instant: derivative undefined, state unchanged
		}
		v = (raw - rs.lastV) / (t - rs.lastT).Seconds()
		rs.lastT, rs.lastV = t, raw
	}
	rs.value = v
	if rs.rule.holds(v) {
		if rs.state != AlertPending && rs.state != AlertFiring {
			rs.condSince = t
			w.transitionLocked(rs, t, AlertPending)
		}
		if rs.state == AlertPending && t-rs.condSince >= rs.rule.For {
			w.transitionLocked(rs, t, AlertFiring)
		}
	} else {
		switch rs.state {
		case AlertPending:
			w.transitionLocked(rs, t, AlertInactive)
		case AlertFiring:
			w.transitionLocked(rs, t, AlertResolved)
		}
	}
}

// transitionLocked moves one rule into next, updating metrics and
// emitting the typed event. Caller holds w.mu.
func (w *Watchdog) transitionLocked(rs *ruleState, t time.Duration, next AlertState) {
	prev := rs.state
	rs.state = next
	rs.sinceNS = int64(t)
	rs.transitions++
	w.transitions++
	if next == AlertFiring {
		rs.fired++
		w.fired++
	}
	if rs.cTransition != nil {
		rs.cTransition.Inc()
	}
	for i, st := range alertStates {
		if g := rs.gauges[i]; g != nil {
			if st == next {
				g.Set(1)
			} else {
				g.Set(0)
			}
		}
	}
	if w.rec != nil {
		ev := AlertEvent{
			Rule: rs.rule.Name, State: string(next), Prev: string(prev),
			Signal: rs.rule.Signal, Value: rs.value, Threshold: rs.rule.Threshold,
		}
		if next == AlertPending || next == AlertFiring {
			ev.SinceNS = int64(rs.condSince)
		}
		w.rec.Alert(t, ev)
	}
}

// AlertStatus is one rule's externally visible state.
type AlertStatus struct {
	Rule        string     `json:"rule"`
	Spec        string     `json:"spec"`
	Signal      string     `json:"signal"`
	State       AlertState `json:"state"`
	Value       float64    `json:"value"`
	Threshold   float64    `json:"threshold"`
	SinceNS     int64      `json:"since_ns"`
	Fired       int64      `json:"fired"`
	Transitions int64      `json:"transitions"`
}

// States returns every rule's current status in evaluation order (nil
// for a nil watchdog).
func (w *Watchdog) States() []AlertStatus {
	if w == nil {
		return nil
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	out := make([]AlertStatus, len(w.rules))
	for i, rs := range w.rules {
		out[i] = AlertStatus{
			Rule: rs.rule.Name, Spec: rs.rule.String(), Signal: rs.rule.Signal,
			State: rs.state, Value: rs.value, Threshold: rs.rule.Threshold,
			SinceNS: rs.sinceNS, Fired: rs.fired, Transitions: rs.transitions,
		}
	}
	return out
}

// AlertSummary aggregates a watchdog's lifetime for results, manifests
// and reports. Firing and Pending count rules currently in that state;
// Fired counts lifetime entries into firing across all rules.
type AlertSummary struct {
	Rules       int   `json:"rules"`
	Firing      int   `json:"firing"`
	Pending     int   `json:"pending"`
	Fired       int64 `json:"fired"`
	Transitions int64 `json:"transitions"`
}

// Summary returns the aggregate state (zero for a nil watchdog).
func (w *Watchdog) Summary() AlertSummary {
	if w == nil {
		return AlertSummary{}
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	s := AlertSummary{Rules: len(w.rules), Fired: w.fired, Transitions: w.transitions}
	for _, rs := range w.rules {
		switch rs.state {
		case AlertFiring:
			s.Firing++
		case AlertPending:
			s.Pending++
		}
	}
	return s
}
