package fleet

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"esm/internal/obs"
	"esm/internal/trace"
)

// mustRules parses a rule list or fails the test.
func mustRules(t *testing.T, specs ...string) []obs.Rule {
	t.Helper()
	rules, err := obs.ParseRules(specs)
	if err != nil {
		t.Fatal(err)
	}
	return rules
}

// alertFleet builds a one-array fleet with a per-array energy rule and
// a fleet-wide metered-joules budget rule, both tight enough to fire on
// any non-trivial trace.
func alertFleet(t *testing.T) (*Fleet, []ArraySpec) {
	t.Helper()
	cat, placement, _ := fixture(t, 30*time.Minute)
	specs := []ArraySpec{{
		Name:           "a",
		Catalog:        cat,
		Placement:      placement,
		SeriesInterval: time.Minute,
		Alerts:         mustRules(t, "energy:total_energy_j>1:for=2m"),
	}}
	f, err := New(Options{
		Specs:  specs,
		Alerts: mustRules(t, "budget:fleet_metered_j>1"),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Close() })
	return f, specs
}

// TestAlertsAndHealthEndpoints drives the /alerts and /healthz surfaces
// end to end: readiness flips once ingest lands, the per-array and
// fleet-wide rules fire against a live trace, and the per-array verb
// returns the same states as the fleet-wide report.
func TestAlertsAndHealthEndpoints(t *testing.T) {
	f, _ := alertFleet(t)
	_, _, recs := fixture(t, 30*time.Minute)
	srv := httptest.NewServer(f.Handler())
	defer srv.Close()

	var h Health
	if err := json.Unmarshal(get(t, srv.URL+"/healthz"), &h); err != nil {
		t.Fatal(err)
	}
	if !h.OK || len(h.Arrays) != 1 || h.Arrays[0].Live {
		t.Fatalf("pre-ingest health %+v", h)
	}

	postNDJSON(t, srv.URL, "a", recs, len(recs), nil)

	if err := json.Unmarshal(get(t, srv.URL+"/healthz"), &h); err != nil {
		t.Fatal(err)
	}
	a := h.Arrays[0]
	if !h.OK || !a.Live || !a.Finished || a.IngestRecords != int64(len(recs)) || a.SeriesSamples == 0 {
		t.Fatalf("post-ingest health %+v", h)
	}

	var rep AlertsReport
	if err := json.Unmarshal(get(t, srv.URL+"/alerts"), &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Summary.Rules != 2 {
		t.Fatalf("want 2 rules in the aggregate, got %+v", rep.Summary)
	}
	if rep.Summary.Firing != 2 || rep.Summary.Fired != 2 {
		t.Fatalf("both tight rules should be firing: %+v", rep.Summary)
	}
	if len(rep.Fleet) != 1 || rep.Fleet[0].Rule != "budget" || rep.Fleet[0].State != obs.AlertFiring {
		t.Fatalf("fleet budget rule: %+v", rep.Fleet)
	}
	if len(rep.Arrays["a"]) != 1 || rep.Arrays["a"][0].Rule != "energy" || rep.Arrays["a"][0].State != obs.AlertFiring {
		t.Fatalf("array rule: %+v", rep.Arrays)
	}

	var one struct {
		Array   string            `json:"array"`
		Summary obs.AlertSummary  `json:"summary"`
		Rules   []obs.AlertStatus `json:"rules"`
	}
	if err := json.Unmarshal(get(t, srv.URL+"/arrays/a/alerts"), &one); err != nil {
		t.Fatal(err)
	}
	if one.Array != "a" || one.Summary.Firing != 1 || len(one.Rules) != 1 || one.Rules[0].Rule != "energy" {
		t.Fatalf("per-array alerts payload: %+v", one)
	}

	// The rule-state gauges land in the shared registry with the
	// array="<name>" / array="fleet" instance labels, beside the build
	// identity gauge.
	metrics := string(get(t, srv.URL+"/metrics"))
	for _, want := range []string{
		`esm_alerts{array="a",rule="energy",state="firing"} 1`,
		`esm_alerts{array="fleet",rule="budget",state="firing"} 1`,
		`esm_alert_transitions_total{array="a",rule="energy"}`,
		`esm_build_info{`,
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

// TestConcurrentAlertScrapes hammers /alerts (which recomputes the
// roll-up and feeds the fleet watchdog) and /healthz from several
// clients while the array ingests — the -race gate for the watchdog's
// locking against the tick and scrape paths.
func TestConcurrentAlertScrapes(t *testing.T) {
	f, _ := alertFleet(t)
	_, _, recs := fixture(t, 30*time.Minute)
	srv := httptest.NewServer(f.Handler())
	defer srv.Close()

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for _, path := range []string{"/alerts", "/alerts", "/healthz", "/arrays/a/alerts", "/metrics"} {
		wg.Add(1)
		go func(url string) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				resp, err := http.Get(url)
				if err != nil {
					t.Error(err)
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		}(srv.URL + path)
	}

	a := f.Array("a")
	for _, rec := range recs {
		if err := a.Feed(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := a.Finish(); err != nil {
		t.Fatal(err)
	}
	close(stop)
	wg.Wait()

	rep := f.Alerts()
	if rep.Summary.Rules != 2 || rep.Summary.Firing != 2 {
		t.Fatalf("post-race alert state: %+v", rep.Summary)
	}
}

// TestEveryFleetSignalEvaluates: for every fleet_* signal ParseRule
// accepts, a >= rule with a threshold below the roll-up's value leaves
// inactive after one Rollup, so no accepted fleet rule is silently
// never evaluated.
func TestEveryFleetSignalEvaluates(t *testing.T) {
	cat, placement, recs := fixture(t, 3*time.Hour)
	// Sparse reads of the burst item spin its cold enclosure up.
	for tm := time.Hour; tm < 3*time.Hour; tm += 17 * time.Minute {
		recs = append(recs, trace.LogicalRecord{Time: tm + time.Millisecond, Item: 1, Offset: 1 << 20, Size: 8 << 10, Op: trace.OpRead})
	}
	trace.SortLogical(recs)
	spec := ArraySpec{Name: "a", Catalog: cat, Placement: placement, SeriesInterval: time.Minute}
	probe, err := New(Options{Specs: []ArraySpec{spec}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { probe.Close() })
	feedAll(t, probe.Array("a"), recs)
	totals := probe.Rollup().Fleet

	var rules []string
	for _, name := range obs.FleetSignals {
		v := totals.signal(name)
		if v <= 0 {
			t.Fatalf("%s reads %v; the fixture must drive every total above zero", name, v)
		}
		rules = append(rules, fmt.Sprintf("%s:%s>=%g", name, name, v/2))
	}
	f, err := New(Options{Specs: []ArraySpec{spec}, Alerts: mustRules(t, rules...)})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Close() })
	feedAll(t, f.Array("a"), recs)
	f.Rollup()
	states := f.wd.States()
	if len(states) != len(obs.FleetSignals) {
		t.Fatalf("%d rule states, want %d", len(states), len(obs.FleetSignals))
	}
	for _, st := range states {
		if st.State == obs.AlertInactive {
			t.Errorf("rule %s stayed inactive after a roll-up", st.Spec)
		}
	}
}
