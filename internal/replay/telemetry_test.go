package replay

import (
	"bytes"
	"testing"
	"time"

	"esm/internal/core"
	"esm/internal/obs"
	"esm/internal/policy"
	"esm/internal/trace"
)

// TestClassCountRulesFire pins that class_p* watchdog rules read the
// running policy's P0–P3 distribution: the session stamps it into every
// sample, so the rule fires whether or not a flight recorder runs
// alongside the watchdog.
func TestClassCountRulesFire(t *testing.T) {
	rules, err := obs.ParseRules([]string{"p3:class_p3>=0.5"})
	if err != nil {
		t.Fatal(err)
	}
	for _, flight := range []bool{true, false} {
		run := esmRun(t)
		run.Telemetry.Alerts = obs.NewWatchdog(obs.WatchdogOptions{Rules: rules})
		if flight {
			run.Telemetry.Flight = obs.NewFlightRecorder(0)
		}
		res, err := Execute(run)
		if err != nil {
			t.Fatal(err)
		}
		if flight {
			if p3 := res.Series.Column("class_p3"); p3[len(p3)-1] < 0.5 {
				t.Fatalf("fixture classifies no P3 item (class_p3 = %v); the rule has nothing to see", p3)
			}
		}
		if res.Alerts.Fired != 1 {
			t.Errorf("flight=%v: class_p3 rule fired %d times, want 1 (states %+v)", flight, res.Alerts.Fired, res.AlertStates)
		}
	}
}

// wrappedPolicy decorates a policy by embedding it, like a metering
// decorator would: only the policy.Policy methods are promoted.
type wrappedPolicy struct {
	policy.Policy
	logical int
}

func (p *wrappedPolicy) OnLogical(rec trace.LogicalRecord) {
	p.logical++
	p.Policy.OnLogical(rec)
}

// TestTelemetryReachesWrappedPolicy pins that the run's telemetry
// reaches a policy hidden behind an embedding decorator: the wrapped
// ESM must produce the same decision log as the bare one.
func TestTelemetryReachesWrappedPolicy(t *testing.T) {
	replayed := func(wrap bool) []byte {
		run := esmRun(t)
		var buf bytes.Buffer
		run.Telemetry.Recorder = obs.New(obs.Options{Log: &buf, Label: "wrap"})
		if wrap {
			run.Policy = &wrappedPolicy{Policy: run.Policy}
		}
		res, err := Execute(run)
		if err != nil {
			t.Fatal(err)
		}
		if err := run.Telemetry.Recorder.Close(); err != nil {
			t.Fatal(err)
		}
		if w, ok := run.Policy.(*wrappedPolicy); ok && w.logical == 0 {
			t.Fatal("the decorator saw no records")
		}
		if !wrap && (res.Provenance.Determinations == 0 || res.Provenance.Decisions == 0) {
			t.Fatal("the bare ESM's log holds no determinations or decisions; the fixture exercises nothing")
		}
		return buf.Bytes()
	}
	bare, wrapped := replayed(false), replayed(true)
	if !bytes.Equal(bare, wrapped) {
		t.Errorf("decision log differs behind the decorator: %d bytes bare, %d wrapped", len(bare), len(wrapped))
	}
}

// TestClassCountsSurviveSwap pins the sampled P0–P3 counts across a
// policy swap: until the incoming policy's first determination, every
// sample keeps the outgoing policy's last counts.
func TestClassCountsSurviveSwap(t *testing.T) {
	run := esmRun(t)
	run.Telemetry.Flight = obs.NewFlightRecorder(0)
	s, err := NewSession(run)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	swapAt := 12 * time.Minute
	swapped := false
	for rec, ok := run.Source.Next(); ok; rec, ok = run.Source.Next() {
		if !swapped && rec.Time >= swapAt {
			if err := s.RunUntil(swapAt); err != nil {
				t.Fatal(err)
			}
			next, err := core.NewESM(core.DefaultParams())
			if err != nil {
				t.Fatal(err)
			}
			if err := s.SwapPolicy(next); err != nil {
				t.Fatal(err)
			}
			swapped = true
		}
		if err := s.Feed(rec); err != nil {
			t.Fatal(err)
		}
	}
	res, err := s.Finish()
	if err != nil {
		t.Fatal(err)
	}
	firstDet := swapAt + core.DefaultParams().InitialPeriod
	p3 := res.Series.Column("class_p3")
	var atSwap float64
	checked := 0
	for i, ns := range res.Series.TimesNS {
		switch at := time.Duration(ns); {
		case at <= swapAt:
			atSwap = p3[i]
		case at < firstDet:
			if p3[i] != atSwap {
				t.Fatalf("class_p3 at %v = %v, want the outgoing policy's %v", at, p3[i], atSwap)
			}
			checked++
		}
	}
	if atSwap == 0 || checked == 0 {
		t.Fatalf("fixture exercises nothing: class_p3 %v at the swap, %d samples checked", atSwap, checked)
	}
}
