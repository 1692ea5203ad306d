package obs

import (
	"bytes"
	"strings"
	"testing"
	"time"
)

// Record builders shared by the decision-log tests.
func powerRec(enc int, state string, cause Cause) Event {
	typ := EvPowerOn
	if state == "off" {
		typ = EvPowerOff
	}
	return Event{Type: typ, Power: &PowerEvent{Enclosure: enc, State: state, Cause: cause}}
}

func migrationRec(typ EventType, item int64, src, dst int, bytes int64) Event {
	return Event{Type: typ, Migration: &MigrationEvent{Item: item, Src: src, Dst: dst, Bytes: bytes}}
}

func cacheRec(typ EventType, function string, items ...int64) Event {
	return Event{Type: typ, Cache: &CacheEvent{Function: function, Items: items}}
}

func decisionRec(d Decision) Event { return Event{Type: EvDecision, Decision: &d} }

// TestNilRecorderIsNoOp: every method must be callable on a nil
// recorder — the disabled fast path the hot I/O loop relies on.
func TestNilRecorderIsNoOp(t *testing.T) {
	var r *Recorder
	r.PhysicalIO(true)
	r.CacheHit()
	r.DelayedWrite()
	r.Log(time.Second, powerRec(0, "off", CauseIdleTimeout))
	r.Log(0, migrationRec(EvMigrationDone, 1, 0, 1, 100))
	r.Log(0, cacheRec(EvCacheSelect, "preload", 1))
	r.Log(0, Event{Type: EvDetermination, Determination: &DeterminationEvent{N: 1}})
	r.Log(0, decisionRec(Decision{Kind: DecisionMove}))
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	var tel Telemetry
	if tel.Logging() {
		t.Fatal("zero telemetry reports a decision log")
	}
	tel.Recorder.Log(0, powerRec(0, "spinup", CauseDemand))
}

func TestEventStreamJSONLRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	rec := New(Options{Log: &buf, Label: "esm"})
	rec.Log(520*time.Second, Event{Type: EvDeterminationStart, Determination: &DeterminationEvent{N: 1, Cause: CausePeriodEnd}})
	rec.Log(520*time.Second, Event{Type: EvDetermination, Determination: &DeterminationEvent{
		N: 1, Cause: CausePeriodEnd,
		PatternCounts: [4]int{3, 2, 1, 4},
		Hot:           []bool{true, false, true},
		NHot:          2, Moves: 5, WriteDelay: 2, Preload: 1,
		NextPeriodNS: int64(624 * time.Second),
	}})
	rec.Log(520*time.Second, decisionRec(Decision{Kind: DecisionMove, Item: 7}))
	rec.Log(600*time.Second, powerRec(1, "off", CauseIdleTimeout))
	rec.Log(700*time.Second, powerRec(1, "spinup", CauseDemand))
	rec.Log(715*time.Second, powerRec(1, "on", CauseDemand))
	rec.Log(520*time.Second, migrationRec(EvMigrationStart, 7, 2, 0, 1<<20))
	rec.Log(530*time.Second, migrationRec(EvMigrationDone, 7, 2, 0, 1<<20))
	rec.Log(520*time.Second, cacheRec(EvCacheSelect, "preload", 3, 4))
	rec.Log(520*time.Second, cacheRec(EvCacheEvict, "preload"))
	rec.Log(800*time.Second, Event{Type: EvReplanTrigger, Replan: &ReplanEvent{Trigger: CauseTriggerSpinUps, Enclosure: 1, SpinUps: 5, Threshold: 4.2}})
	rec.Log(800*time.Second, Event{Type: EvPeriodAdapt, Period: &PeriodEvent{OldNS: int64(520 * time.Second), NewNS: int64(624 * time.Second)}})
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}

	events, err := ReadEvents(&buf)
	if err != nil {
		t.Fatal(err)
	}
	// The stream keeps every record but the empty cache eviction.
	want := []EventType{
		EvDeterminationStart, EvDetermination, EvDecision, EvPowerOff, EvPowerOn, EvPowerOn,
		EvMigrationStart, EvMigrationDone, EvCacheSelect,
		EvReplanTrigger, EvPeriodAdapt,
	}
	if len(events) != len(want) {
		t.Fatalf("got %d events, want %d", len(events), len(want))
	}
	for i, ev := range events {
		if ev.Type != want[i] {
			t.Errorf("event %d: type %q, want %q", i, ev.Type, want[i])
		}
		if ev.Seq != int64(i+1) {
			t.Errorf("event %d: seq %d, want %d", i, ev.Seq, i+1)
		}
		if ev.Run != "esm" {
			t.Errorf("event %d: run %q, want esm", i, ev.Run)
		}
	}
	det := events[1].Determination
	if det == nil || det.PatternCounts != [4]int{3, 2, 1, 4} || det.NHot != 2 {
		t.Fatalf("determination payload corrupted: %+v", det)
	}
	if d := events[2].Decision; d == nil || d.Kind != DecisionMove || d.Item != 7 {
		t.Fatalf("decision payload corrupted: %+v", d)
	}
	if p := events[4].Power; p == nil || p.State != "spinup" || p.Cause != CauseDemand {
		t.Fatalf("power payload corrupted: %+v", events[4].Power)
	}
}

// TestRecorderCounters: the esm_* instruments are the recorder's rule
// over the same records the stream carries, and count even without a
// log; the "on" segment counts nothing.
func TestRecorderCounters(t *testing.T) {
	reg := NewRegistry()
	rec := New(Options{Registry: reg})
	rec.Log(time.Second, powerRec(0, "spinup", CauseDemand))
	rec.Log(2*time.Second, powerRec(0, "on", CauseDemand))
	rec.Log(3*time.Second, powerRec(0, "off", CauseIdleTimeout))
	rec.Log(4*time.Second, migrationRec(EvMigrationDone, 1, 0, 1, 100))
	rec.Log(5*time.Second, Event{Type: EvDegrade, Degrade: &DegradeEvent{Entered: true}})
	var out bytes.Buffer
	if err := reg.WritePrometheus(&out); err != nil {
		t.Fatal(err)
	}
	for _, line := range []string{
		"esm_spin_ups_total 1", "esm_power_offs_total 1",
		"esm_migrations_total 1", "esm_migrated_bytes_total 100",
		"esm_degradations_total 1", "esm_degraded 1",
	} {
		if !strings.Contains(out.String(), line+"\n") {
			t.Errorf("registry lacks %q:\n%s", line, out.String())
		}
	}
}

// TestTimelineAndOffTime rebuilds a power timeline from the event
// stream and sums its off time.
func TestTimelineAndOffTime(t *testing.T) {
	var buf bytes.Buffer
	rec := New(Options{Log: &buf})
	rec.Log(10*time.Second, powerRec(0, "off", CauseIdleTimeout))
	rec.Log(30*time.Second, powerRec(0, "spinup", CauseDemand))
	rec.Log(45*time.Second, powerRec(0, "on", CauseDemand))
	rec.Log(100*time.Second, powerRec(0, "off", CauseIdleTimeout))
	rec.Log(100*time.Second, cacheRec(EvCacheSelect, "preload", 1))

	all := PowerSegments(logged(t, rec, &buf))
	segs := all[0]
	if len(all) != 1 || len(segs) != 3 {
		t.Fatalf("got %v, want one enclosure with 3 segments", all)
	}
	if segs[0].State != "off" || segs[0].Cause != CauseIdleTimeout || segs[0].T != 10*time.Second {
		t.Fatalf("segment 0 wrong: %+v", segs[0])
	}
	// Off 10s..30s (20s) plus 100s..120s (20s).
	if got := OffTime(segs, 120*time.Second); got != 40*time.Second {
		t.Fatalf("OffTime = %v, want 40s", got)
	}
}

// logged closes rec, which logs to buf, and reads back every record
// it wrote.
func logged(t *testing.T, rec *Recorder, buf *bytes.Buffer) []Event {
	t.Helper()
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
	events, err := ReadEvents(buf)
	if err != nil {
		t.Fatal(err)
	}
	return events
}

func TestReadEventsRejectsGarbage(t *testing.T) {
	_, err := ReadEvents(strings.NewReader(powerLine + "not json\n"))
	if err == nil || !strings.Contains(err.Error(), "line 2") {
		t.Fatalf("want line-2 error, got %v", err)
	}
}
