package replay

import (
	"bytes"
	"reflect"
	"testing"
	"time"

	"esm/internal/core"
	"esm/internal/obs"
	"esm/internal/policy"
	"esm/internal/storage"
	"esm/internal/trace"
)

// alertRules is the watchdog rule set of the equality test: a held
// energy budget, an instantaneous rate rule and a spin-up threshold —
// together they exercise pending/firing/resolved transitions on the
// sampling grid.
func alertRules(t *testing.T) []obs.Rule {
	t.Helper()
	rules, err := obs.ParseRules([]string{
		"budget:total_energy_j>1e3:for=2m",
		"burn:rate(total_energy_j)>1",
		"spin:spin_ups>=1",
	})
	if err != nil {
		t.Fatal(err)
	}
	return rules
}

// TestAlertStreamMatchesSerial is the watchdog's determinism gate:
// across policies, the alert transition events in the recorder's JSONL
// stream and the end-of-run rule states must be byte-for-byte
// (respectively deeply) identical between a serial run and its rerun.
func TestAlertStreamMatchesSerial(t *testing.T) {
	dur := 25 * time.Minute
	policies := []struct {
		name string
		mk   func() policy.Policy
	}{
		{"esm", func() policy.Policy {
			p := core.DefaultParams()
			p.InitialPeriod = 4 * time.Minute
			esm, err := core.NewESM(p)
			if err != nil {
				t.Fatal(err)
			}
			return esm
		}},
		{"none", func() policy.Policy { return policy.NoPowerSaving{} }},
	}
	run := func(mk func() policy.Policy) ([]byte, obs.AlertSummary, []obs.AlertStatus) {
		cat, recs, placement := skewedTrace(dur, 99)
		var events bytes.Buffer
		rec := obs.New(obs.Options{Log: &events, Registry: obs.NewRegistry(), Label: "alert-eq"})
		wd := obs.NewWatchdog(obs.WatchdogOptions{Rules: alertRules(t), Recorder: rec})
		res, err := Execute(Run{
			Catalog:   cat,
			Source:    trace.NewSliceSource(recs),
			Placement: placement,
			Storage:   storage.DefaultConfig(4),
			Policy:    mk(),
			Duration:  dur,
			Telemetry: obs.Telemetry{Recorder: rec, Alerts: wd},
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := rec.Close(); err != nil {
			t.Fatal(err)
		}
		return events.Bytes(), res.Alerts, res.AlertStates
	}
	for _, pc := range policies {
		serialEvents, serialSum, serialStates := run(pc.mk)
		if serialSum.Fired == 0 {
			t.Fatalf("%s: no rule ever fired; the fixture exercises nothing", pc.name)
		}
		if serialSum.Rules != 3 || len(serialStates) != 3 {
			t.Fatalf("%s: want 3 rule states, got summary %+v, %d states", pc.name, serialSum, len(serialStates))
		}
		gotEvents, gotSum, gotStates := run(pc.mk)
		if !bytes.Equal(serialEvents, gotEvents) {
			i := 0
			for i < len(serialEvents) && i < len(gotEvents) && serialEvents[i] == gotEvents[i] {
				i++
			}
			t.Errorf("%s: event stream (incl. alerts) diverged at byte %d of %d/%d",
				pc.name, i, len(serialEvents), len(gotEvents))
		}
		if serialSum != gotSum {
			t.Errorf("%s: alert summary diverged: serial %+v, rerun %+v", pc.name, serialSum, gotSum)
		}
		if !reflect.DeepEqual(serialStates, gotStates) {
			t.Errorf("%s: alert states diverged:\nserial %+v\nrerun  %+v", pc.name, serialStates, gotStates)
		}
	}
}

// TestAlertsWithoutSeries pins that -alerts alone (no flight recorder)
// still drives the watchdog on the power-sampling grid.
func TestAlertsWithoutSeries(t *testing.T) {
	dur := 20 * time.Minute
	cat, recs, placement := skewedTrace(dur, 3)
	wd := obs.NewWatchdog(obs.WatchdogOptions{Rules: alertRules(t)})
	res, err := Execute(Run{
		Catalog:   cat,
		Source:    trace.NewSliceSource(recs),
		Placement: placement,
		Storage:   storage.DefaultConfig(4),
		Policy:    policy.NoPowerSaving{},
		Duration:  dur,
		Telemetry: obs.Telemetry{Alerts: wd},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Series != nil {
		t.Fatalf("no flight recorder attached, but Result.Series = %v", res.Series)
	}
	if res.Alerts.Transitions == 0 {
		t.Fatal("watchdog saw no samples: no transitions despite an always-true budget rule")
	}
	if res.Alerts.Fired == 0 {
		t.Fatalf("budget rule never fired: %+v", res.Alerts)
	}
}
