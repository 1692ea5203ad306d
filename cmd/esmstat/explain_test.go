package main

import (
	"bytes"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"esm/internal/experiments"
	"esm/internal/obs"
)

// TestUsageListsEverySubcommand pins the top-level usage output: every
// dispatched subcommand appears exactly once with a brief.
func TestUsageListsEverySubcommand(t *testing.T) {
	want := []string{"alerts", "attrib", "diff", "events", "explain", "fleet", "latency", "series"}
	if len(subcommandHelp) != len(want) {
		t.Fatalf("subcommandHelp lists %d subcommands, want %d", len(subcommandHelp), len(want))
	}
	for i, name := range want {
		if subcommandHelp[i].name != name {
			t.Errorf("subcommandHelp[%d] = %q, want %q (keep the table sorted)", i, subcommandHelp[i].name, name)
		}
		if subcommandHelp[i].brief == "" {
			t.Errorf("subcommand %q has no brief", subcommandHelp[i].name)
		}
	}
	var buf bytes.Buffer
	usage(&buf)
	out := buf.String()
	for _, name := range want {
		if !strings.Contains(out, "\n  "+name+" ") {
			t.Errorf("usage output does not list subcommand %q:\n%s", name, out)
		}
	}
}

// explainFixture writes a small decision log to disk: a spin-up storm
// on enclosure 2 driven by injected faults, one move decision, an
// alert firing and the attribution, all inside the first twenty
// minutes.
func explainFixture(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "events.jsonl")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	rec := obs.New(obs.Options{Log: f, Label: "x"})
	at := func(m int) time.Duration { return time.Duration(m) * time.Minute }
	for _, d := range []obs.Decision{
		{Kind: obs.DecisionMove, Item: 7, Class: 0, PrevClass: -1, Src: 0, Dst: 2, IntervalS: 300, ReadRatio: 0.9, ToCold: true},
		{Kind: obs.DecisionReclass, Item: 8, Class: 0, PrevClass: 3, Src: 1, Dst: -1},
	} {
		d.Det, d.Cause = 1, obs.CausePeriodEnd
		rec.Log(at(4), obs.Event{Type: obs.EvDecision, Decision: &d})
	}
	rec.Log(at(4), obs.Event{Type: obs.EvDetermination, Determination: &obs.DeterminationEvent{N: 1, Cause: obs.CausePeriodEnd}})
	for i := 0; i < 3; i++ {
		t := at(5) + time.Duration(i)*time.Second
		rec.Log(t, obs.Event{Type: obs.EvFault, Fault: &obs.FaultEvent{Kind: "spinup-fail", Enclosure: 2}})
		rec.Log(t, obs.Event{Type: obs.EvPowerOn, Power: &obs.PowerEvent{Enclosure: 2, State: "spinup", Cause: obs.CauseDemand}})
	}
	rec.Log(at(6), obs.Event{Type: obs.EvPowerOn, Power: &obs.PowerEvent{Enclosure: 2, State: "on", Cause: obs.CauseDemand}})
	rec.Log(at(7), obs.Event{Type: obs.EvMigrationDone, Migration: &obs.MigrationEvent{Item: 7, Src: 0, Dst: 2}})
	rec.Log(at(8), obs.Event{Type: obs.EvAlert, Alert: &obs.AlertEvent{
		Rule: "budget", State: string(obs.AlertFiring), Prev: "pending",
		Signal: "total_energy_j", Value: 2000, Threshold: 1500,
	}})
	rec.RecordAttribution(at(20), &obs.Attribution{
		TotalJ: 1000,
		Enclosures: []obs.EnclosureAttribution{{
			Enclosure: 2,
			ByItem: []obs.ItemEnergy{
				{Item: 7, Class: 0, Joules: 400},
				{Item: 9, Class: 1, Joules: 100},
			},
		}},
	})
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestExplainReportNamesInjectedCause runs explain over the fixture
// and checks the report surfaces the injected fault burst as the top
// root cause, the faulted enclosure, and the attributed item with its
// decision chain.
func TestExplainReportNamesInjectedCause(t *testing.T) {
	path := explainFixture(t)
	var buf bytes.Buffer
	if err := runExplain(&buf, []string{"-since", "0s", "-until", "10m", path}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "1. fault burst: 3 injected faults (causes: spinup-fail x3) on enclosures 2 x3") {
		t.Errorf("report does not rank the injected fault burst first:\n%s", out)
	}
	if !strings.Contains(out, "spin-up storm: 3 spin-up transitions") {
		t.Errorf("report misses the spin-up storm:\n%s", out)
	}
	if !strings.Contains(out, "item 7") || !strings.Contains(out, "400.0 J") {
		t.Errorf("report misses the attributed item:\n%s", out)
	}
	if !strings.Contains(out, "last 0->2 at 4m0s") {
		t.Errorf("report misses item 7's move chain:\n%s", out)
	}

	// The report is a pure function of the file: rerunning yields the
	// identical bytes.
	var again bytes.Buffer
	if err := runExplain(&again, []string{"-since", "0s", "-until", "10m", path}); err != nil {
		t.Fatal(err)
	}
	if buf.String() != again.String() {
		t.Error("explain report not deterministic across reruns")
	}
}

// TestExplainCountsMatchEventStream replays the file-server workload
// with ESM alone at scale 0.2 and checks that explain reports the
// log's determination, spin-up, power-off and migration records, and
// that the log holds every record its roll-up counts.
func TestExplainCountsMatchEventStream(t *testing.T) {
	w, err := experiments.Build(experiments.FileServer, 0.2, 0)
	if err != nil {
		t.Fatal(err)
	}
	var esm []experiments.PolicyFactory
	for _, f := range experiments.DefaultPolicies() {
		if f.Name == "esm" {
			esm = append(esm, f)
		}
	}
	var events bytes.Buffer
	rec := obs.New(obs.Options{Log: &events})
	tel := func(string) obs.Telemetry { return obs.Telemetry{Recorder: rec} }
	if _, err := experiments.EvaluateOpts(w, esm, experiments.Observers{Telemetry: tel}); err != nil {
		t.Fatal(err)
	}
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "events.jsonl")
	if err := os.WriteFile(path, events.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}

	evs, err := obs.ReadEvents(&events)
	if err != nil {
		t.Fatal(err)
	}
	if sum := rec.Summary(); int64(len(evs)) != sum.Rows {
		t.Fatalf("log holds %d records, its summary %+v", len(evs), sum)
	}
	var want struct{ determinations, spinUps, powerOffs, migrations int }
	for _, ev := range evs {
		switch {
		case ev.Type == obs.EvDetermination:
			want.determinations++
		case ev.Type == obs.EvPowerOn && ev.Power.State == "spinup":
			want.spinUps++
		case ev.Type == obs.EvPowerOff:
			want.powerOffs++
		case ev.Type == obs.EvMigrationDone:
			want.migrations++
		}
	}
	if want.determinations == 0 || want.spinUps == 0 || want.migrations == 0 {
		t.Fatalf("the run exercises nothing: %+v", want)
	}

	var out bytes.Buffer
	if err := runExplain(&out, []string{"-since", "0s", path}); err != nil {
		t.Fatal(err)
	}
	m := regexp.MustCompile(`determinations (\d+)[^\n]*\n.*\n  runtime +(\d+) spin-ups, \d+ power-ons, (\d+) power-offs, (\d+) migrations`).FindStringSubmatch(out.String())
	if m == nil {
		t.Fatalf("report lacks the window activity counts:\n%s", out.String())
	}
	var reported [4]int
	for i := range reported {
		reported[i], _ = strconv.Atoi(m[1+i])
	}
	if reported != [4]int{want.determinations, want.spinUps, want.powerOffs, want.migrations} {
		t.Errorf("explain reports %v determinations/spin-ups/power-offs/migrations, the log %+v", reported, want)
	}
}

// TestExplainAlertWindow resolves the window from an alert firing in
// the same log, for the named run only.
func TestExplainAlertWindow(t *testing.T) {
	path := explainFixture(t)
	var buf bytes.Buffer
	if err := runExplain(&buf, []string{"-alert", "budget", "-run", "x", path}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "alert budget first fired at 8m0s") {
		t.Errorf("report does not state the alert firing:\n%s", out)
	}
	if !strings.Contains(out, "fault burst") {
		t.Errorf("alert-derived window misses the fault burst:\n%s", out)
	}

	var missing bytes.Buffer
	if err := runExplain(&missing, []string{"-alert", "nope", path}); err == nil {
		t.Error("unknown alert rule did not error")
	}
	if err := runExplain(&missing, []string{"-alert", "budget", "-run", "y", path}); err == nil || !strings.Contains(err.Error(), `run "y" not in log (have: x)`) {
		t.Errorf("unknown run gave %v, want an error listing the runs", err)
	}
}

// TestSeriesDiffLocatesDivergence pins diff -series: identical series
// report no divergence; a perturbed copy reports the first diverged
// sample and hands explain the window.
func TestSeriesDiffLocatesDivergence(t *testing.T) {
	mk := func(perturb bool) string {
		f := obs.NewFlightRecorder(time.Minute)
		for i := 0; i < 10; i++ {
			e := 100.0 * float64(i)
			if perturb && i >= 6 {
				e *= 1.25
			}
			obs.Telemetry{Flight: f}.Sample(obs.FlightSample{T: time.Duration(i) * time.Minute, TotalEnergyJ: e, SpinUps: i}, false)
		}
		path := filepath.Join(t.TempDir(), "s.csv")
		fh, err := os.Create(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := f.Series().WriteCSV(fh); err != nil {
			t.Fatal(err)
		}
		if err := fh.Close(); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base, same, pert := mk(false), mk(false), mk(true)

	var buf bytes.Buffer
	diverged, err := runSeriesDiff(&buf, base, same, 1e-9)
	if err != nil {
		t.Fatal(err)
	}
	if diverged {
		t.Fatalf("identical series reported diverged:\n%s", buf.String())
	}
	if !strings.Contains(buf.String(), "series identical") {
		t.Errorf("missing identical verdict:\n%s", buf.String())
	}

	buf.Reset()
	diverged, err = runSeriesDiff(&buf, base, pert, 1e-9)
	if err != nil {
		t.Fatal(err)
	}
	if !diverged {
		t.Fatalf("perturbed series not reported:\n%s", buf.String())
	}
	out := buf.String()
	if !strings.Contains(out, "earliest divergence: total_energy_j at 6m0s (window 5m0s..6m0s)") {
		t.Errorf("divergence window wrong:\n%s", out)
	}
	if !strings.Contains(out, "esmstat explain -since 5m0s -until 6m0s") {
		t.Errorf("missing explain hand-off:\n%s", out)
	}
	if !strings.Contains(out, "spin_ups") {
		t.Errorf("undiverged signals should still be listed:\n%s", out)
	}
}
