package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"esm/internal/obs"
)

// TestRendererCoversAllEventKinds pins the renderer's coverage to the
// full telemetry vocabulary: every event kind obs can emit needs an
// explicit decision in coveredEventKinds (rendered, or deliberately
// folded into a sibling). Adding a kind to obs without deciding how
// esmstat shows it fails here.
func TestRendererCoversAllEventKinds(t *testing.T) {
	for _, kind := range obs.AllEventTypes() {
		if _, ok := coveredEventKinds[kind]; !ok {
			t.Errorf("event kind %q has no rendering decision in coveredEventKinds", kind)
		}
	}
	for kind := range coveredEventKinds {
		found := false
		for _, k := range obs.AllEventTypes() {
			if k == kind {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("coveredEventKinds lists %q, which obs no longer emits", kind)
		}
	}
}

// TestRenderRunShowsEveryRenderedKind feeds one event of every kind
// through the renderer and checks each kind marked rendered leaves a
// visible mark in the output.
func TestRenderRunShowsEveryRenderedKind(t *testing.T) {
	events := []obs.Event{
		{T: 1e9, Type: obs.EvDeterminationStart, Determination: &obs.DeterminationEvent{N: 1, Cause: "period-end"}},
		{T: 2e9, Type: obs.EvDetermination, Determination: &obs.DeterminationEvent{
			N: 1, Cause: "period-end", PatternCounts: [4]int{3, 2, 1, 0},
			Hot: []bool{true, false}, Moves: 2, WriteDelay: 1, Preload: 1, NextPeriodNS: 60e9,
		}},
		{T: 3e9, Type: obs.EvMigrationStart, Migration: &obs.MigrationEvent{Item: 7, Src: 0, Dst: 1}},
		{T: 4e9, Type: obs.EvMigrationDone, Migration: &obs.MigrationEvent{Item: 7, Src: 0, Dst: 1, Bytes: 1 << 30}},
		{T: 5e9, Type: obs.EvMigrationSkip, Migration: &obs.MigrationEvent{Item: 8, Src: -1, Dst: 1}},
		{T: 6e9, Type: obs.EvMigrationFail, Migration: &obs.MigrationEvent{Item: 9, Src: 0, Dst: 1}},
		{T: 7e9, Type: obs.EvCacheSelect, Cache: &obs.CacheEvent{Function: "preload", Items: []int64{1, 2}}},
		{T: 8e9, Type: obs.EvCacheEvict, Cache: &obs.CacheEvent{Function: "preload", Items: []int64{1}}},
		{T: 9e9, Type: obs.EvPowerOn, Power: &obs.PowerEvent{Enclosure: 1, State: "spinup", Cause: "app-io"}},
		{T: 10e9, Type: obs.EvPowerOff, Power: &obs.PowerEvent{Enclosure: 1, State: "off", Cause: "policy"}},
		{T: 11e9, Type: obs.EvReplanTrigger, Replan: &obs.ReplanEvent{Trigger: obs.CauseTriggerInterval, Enclosure: 0, IntervalNS: 90e9, Threshold: 52e9}},
		{T: 12e9, Type: obs.EvPeriodAdapt, Period: &obs.PeriodEvent{OldNS: 60e9, NewNS: 120e9}},
		{T: 13e9, Type: obs.EvFault, Fault: &obs.FaultEvent{Kind: "spinup", Enclosure: 1, Attempt: 1}},
		{T: 14e9, Type: obs.EvDegrade, Degrade: &obs.DegradeEvent{Entered: true, Faults: 5, WindowNS: 300e9}},
		{T: 15e9, Type: obs.EvAlert, Alert: &obs.AlertEvent{
			Rule: "budget", State: "firing", Prev: "pending",
			Signal: "total_energy_j", Value: 2e6, Threshold: 1.5e6, SinceNS: 10e9,
		}},
		{T: 16e9, Type: obs.EvDecision, Decision: &obs.Decision{Kind: obs.DecisionMove, Det: 1, Item: 7, Src: 0, Dst: 1}},
		{T: 17e9, Type: obs.EvAttribution, Attribution: &obs.AttributionEvent{Enclosure: 1, Items: []obs.ItemEnergy{{Item: 7, Joules: 10}}}},
	}
	// The fixture must exercise the full vocabulary, or the coverage
	// claim below is hollow.
	have := map[obs.EventType]bool{}
	for _, ev := range events {
		have[ev.Type] = true
	}
	for _, kind := range obs.AllEventTypes() {
		if !have[kind] {
			t.Fatalf("fixture is missing an event of kind %q", kind)
		}
	}

	var sb strings.Builder
	renderRun(&sb, "test", events)
	out := sb.String()
	for want, why := range map[string]string{
		"#1":                              "determination line",
		"1 done (1.00 GB)":                "migration aggregate",
		"1 skipped, 1 failed":             "migration skip/fail aggregate",
		"preload=2":                       "cache selection aggregate",
		"app-io=1":                        "spin-up cause aggregate",
		"power-offs: 1":                   "power-off aggregate",
		"trigger i)":                      "replan trigger line",
		"period 1m0s -> 2m0s":             "period adaptation line",
		"spinup=1":                        "fault aggregate",
		"degraded mode entered":           "degrade chronicle line",
		"alert budget: pending -> firing": "alert transition line",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %s (%q):\n%s", why, want, out)
		}
	}
}

// TestWindowEvents pins the -since/-until semantics: inclusive bounds,
// until <= 0 unbounded, and the no-window case returns the input as-is.
func TestWindowEvents(t *testing.T) {
	var events []obs.Event
	for i := 0; i <= 10; i++ {
		events = append(events, obs.Event{T: int64(i) * int64(time.Second), Type: obs.EvPowerOff,
			Power: &obs.PowerEvent{Enclosure: i, State: "off", Cause: "policy"}})
	}
	if got := windowEvents(events, 0, 0); len(got) != len(events) {
		t.Fatalf("no-op window dropped events: %d of %d", len(got), len(events))
	}
	got := windowEvents(events, 3*time.Second, 7*time.Second)
	if len(got) != 5 || got[0].Power.Enclosure != 3 || got[4].Power.Enclosure != 7 {
		t.Fatalf("window [3s,7s] kept %d events, first/last %+v %+v", len(got), got[0].Power, got[len(got)-1].Power)
	}
	if got := windowEvents(events, 8*time.Second, 0); len(got) != 3 {
		t.Fatalf("open-ended window kept %d events, want 3", len(got))
	}
	if got := windowEvents(events, 20*time.Second, 0); got != nil {
		t.Fatalf("empty window returned %d events", len(got))
	}
}

// TestRenderRunWindowed: the renderer over a windowed slice only shows
// what is inside the window.
func TestRenderRunWindowed(t *testing.T) {
	events := []obs.Event{
		{T: 2e9, Type: obs.EvDetermination, Determination: &obs.DeterminationEvent{
			N: 1, Cause: "period-end", Hot: []bool{}, NextPeriodNS: 60e9}},
		{T: 600e9, Type: obs.EvDetermination, Determination: &obs.DeterminationEvent{
			N: 2, Cause: "period-end", Hot: []bool{}, NextPeriodNS: 60e9}},
	}
	var sb strings.Builder
	renderRun(&sb, "w", windowEvents(events, 0, 10*time.Second))
	out := sb.String()
	if !strings.Contains(out, "#1") || strings.Contains(out, "#2") {
		t.Fatalf("windowed render wrong:\n%s", out)
	}
}

// TestRunSelectionErrors: -run on events and alerts tells a label the
// log does not carry ("not in log", listing the runs it does) from a
// run in the log that has nothing to render, and a log without alert
// events keeps its -alerts hint under -run.
func TestRunSelectionErrors(t *testing.T) {
	var log bytes.Buffer
	for _, run := range []string{"x", "y"} {
		rec := obs.New(obs.Options{Log: &log, Label: run})
		rec.Log(time.Minute, obs.Event{Type: obs.EvDetermination, Determination: &obs.DeterminationEvent{N: 1, Cause: obs.CausePeriodEnd}})
		if run == "x" {
			rec.Log(2*time.Minute, obs.Event{Type: obs.EvAlert, Alert: &obs.AlertEvent{
				Rule: "budget", State: string(obs.AlertFiring), Prev: "pending",
				Signal: "total_energy_j", Value: 2000, Threshold: 1500,
			}})
		}
		if err := rec.Close(); err != nil {
			t.Fatal(err)
		}
	}
	dir := t.TempDir()
	both := filepath.Join(dir, "both.jsonl")
	noAlerts := filepath.Join(dir, "noalerts.jsonl")
	lines := strings.SplitAfter(log.String(), "\n")
	if err := os.WriteFile(both, log.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(noAlerts, []byte(lines[0]), 0o644); err != nil {
		t.Fatal(err)
	}

	if _, err := renderAlertsLog(io.Discard, both, "x"); err != nil {
		t.Errorf("alerts -run x: %v", err)
	}
	for _, c := range []struct {
		name string
		err  error
		want string
	}{
		{"alerts -run of a run without alerts", second(renderAlertsLog(io.Discard, both, "y")), "no alert events (was the run started with -alerts?)"},
		{"alerts -run on a log without alerts", second(renderAlertsLog(io.Discard, noAlerts, "x")), "no alert events (was the run started with -alerts?)"},
		{"alerts -run of an unknown run", second(renderAlertsLog(io.Discard, both, "z")), `run "z" not in log (have: x, y)`},
		{"events -run of an unknown run", runEvents(io.Discard, both, "z", 0, 0), `run "z" not in log (have: x, y)`},
	} {
		if c.err == nil || !strings.Contains(c.err.Error(), c.want) {
			t.Errorf("%s: %v, want %q", c.name, c.err, c.want)
		}
	}
	if err := runEvents(io.Discard, both, "y", 0, 0); err != nil {
		t.Errorf("events -run y: %v", err)
	}
}

func second(_ bool, err error) error { return err }

// payloadless are log lines whose type selects a payload they do not
// carry.
var payloadless = []string{
	`{"seq":1,"t_ns":5,"type":"power_on","run":"x"}` + "\n",
	`{"seq":1,"t_ns":5,"type":"alert","run":"x"}` + "\n",
}

// TestRenderersRejectPayloadlessLines: a line without the payload its
// type selects is an error naming the line in every renderer of the
// log, not a nil dereference.
func TestRenderersRejectPayloadlessLines(t *testing.T) {
	for _, line := range payloadless {
		path := filepath.Join(t.TempDir(), "events.jsonl")
		if err := os.WriteFile(path, []byte(line), 0o644); err != nil {
			t.Fatal(err)
		}
		if err := runEvents(io.Discard, path, "", 0, 0); err == nil || !strings.Contains(err.Error(), "line 1") {
			t.Errorf("events over %q: %v, want a line-1 error", line, err)
		}
		if _, err := renderAlertsLog(io.Discard, path, ""); err == nil || !strings.Contains(err.Error(), "line 1") {
			t.Errorf("alerts over %q: %v, want a line-1 error", line, err)
		}
		if err := runExplain(io.Discard, []string{path}); err == nil || !strings.Contains(err.Error(), "line 1") {
			t.Errorf("explain over %q: %v, want a line-1 error", line, err)
		}
	}
}

// FuzzReadEvents: every input either fails with a line-numbered error,
// or decodes to events that re-encode to the input's bytes and that
// the events, alerts and explain renderers handle without panicking.
func FuzzReadEvents(f *testing.F) {
	golden, err := os.ReadFile(filepath.Join("..", "..", "internal", "replay", "testdata", "golden", "faulted.events.jsonl"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(golden)
	for _, line := range payloadless {
		f.Add([]byte(line))
	}
	lineErr := regexp.MustCompile(`line [0-9]+: `)
	f.Fuzz(func(t *testing.T, in []byte) {
		events, err := obs.ReadEvents(bytes.NewReader(in))
		if err != nil {
			if !lineErr.MatchString(err.Error()) {
				t.Fatalf("error names no line: %v", err)
			}
			return
		}
		var out bytes.Buffer
		enc := json.NewEncoder(&out)
		for i := range events {
			if err := enc.Encode(&events[i]); err != nil {
				t.Fatal(err)
			}
		}
		if !bytes.Equal(out.Bytes(), in) {
			t.Fatalf("accepted input re-encodes differently:\nin  %q\nout %q", in, out.Bytes())
		}
		path := filepath.Join(t.TempDir(), "events.jsonl")
		if err := os.WriteFile(path, in, 0o644); err != nil {
			t.Fatal(err)
		}
		_ = runEvents(io.Discard, path, "", 0, 0)
		_, _ = renderAlertsLog(io.Discard, path, "")
		_ = runExplain(io.Discard, []string{path})
		for _, ev := range events {
			if ev.Type == obs.EvAlert {
				_ = runExplain(io.Discard, []string{"-alert", ev.Alert.Rule, path})
				break
			}
		}
	})
}
