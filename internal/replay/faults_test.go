package replay

import (
	"bytes"
	"testing"
	"time"

	"esm/internal/core"
	"esm/internal/faults"
	"esm/internal/obs"
	"esm/internal/storage"
	"esm/internal/trace"
)

// faultTrace builds a two-enclosure workload whose second enclosure goes
// cold and is periodically woken by bursts, so spin-up faults get a
// chance to fire.
func faultTrace(dur time.Duration) (*trace.Catalog, []trace.LogicalRecord) {
	cat := trace.NewCatalog()
	busy := cat.Add("busy", 1<<30)
	burst := cat.Add("burst", 32<<20)
	var recs []trace.LogicalRecord
	for tm := time.Duration(0); tm < dur; tm += 2 * time.Second {
		recs = append(recs, trace.LogicalRecord{Time: tm, Item: busy, Offset: int64(tm), Size: 8 << 10, Op: trace.OpRead})
	}
	for start := time.Duration(0); start < dur; start += 5 * time.Minute {
		for j := 0; j < 5; j++ {
			recs = append(recs, trace.LogicalRecord{Time: start + time.Duration(j)*300*time.Millisecond, Item: burst, Size: 8 << 10, Op: trace.OpRead})
		}
	}
	trace.SortLogical(recs)
	return cat, recs
}

func TestFaultedRunIsReproducible(t *testing.T) {
	dur := 30 * time.Minute
	fc := &faults.Config{
		Seed:             7,
		SpinUpFailProb:   0.4,
		SpinUpBackoff:    time.Second,
		TransientIOProb:  0.05,
		BatteryFailAt:    10 * time.Minute,
		BatteryRecoverAt: 15 * time.Minute,
	}
	run := func() *Result {
		cat, recs := faultTrace(dur)
		esm, err := core.NewESM(core.DefaultParams())
		if err != nil {
			t.Fatal(err)
		}
		res, err := Execute(Run{
			Catalog:   cat,
			Source:    trace.NewSliceSource(recs),
			Placement: []int{0, 1},
			Storage:   storage.DefaultConfig(2),
			Policy:    esm,
			Duration:  dur,
			Faults:    fc,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.Faults.Total() == 0 {
		t.Fatal("scenario injected no faults; the test exercises nothing")
	}
	if a.Faults != b.Faults {
		t.Fatalf("fault counters diverged:\n%+v\n%+v", a.Faults, b.Faults)
	}
	if a.EnergyJ != b.EnergyJ {
		t.Fatalf("energy diverged: %v vs %v", a.EnergyJ, b.EnergyJ)
	}
	if a.Resp.Count() != b.Resp.Count() || a.Resp.Mean() != b.Resp.Mean() {
		t.Fatalf("response stats diverged: %d/%v vs %d/%v",
			a.Resp.Count(), a.Resp.Mean(), b.Resp.Count(), b.Resp.Mean())
	}
	if a.Storage != b.Storage {
		t.Fatalf("storage stats diverged:\n%+v\n%+v", a.Storage, b.Storage)
	}
	if a.Degradations != b.Degradations || a.SpinUps != b.SpinUps {
		t.Fatalf("degradations/spinups diverged: %d/%d vs %d/%d",
			a.Degradations, a.SpinUps, b.Degradations, b.SpinUps)
	}
}

func TestDegradedModeFollowsFaultSchedule(t *testing.T) {
	dur := 30 * time.Minute
	cat, recs := faultTrace(dur)
	params := core.DefaultParams()
	params.FaultDegradeThreshold = 1
	esm, err := core.NewESM(params)
	if err != nil {
		t.Fatal(err)
	}
	var log bytes.Buffer
	rec := obs.New(obs.Options{Log: &log})
	failAt, recoverAt := 5*time.Minute, 6*time.Minute
	res, err := Execute(Run{
		Catalog:   cat,
		Source:    trace.NewSliceSource(recs),
		Placement: []int{0, 1},
		Storage:   storage.DefaultConfig(2),
		Policy:    esm,
		Duration:  dur,
		Telemetry: obs.Telemetry{Recorder: rec},
		Faults:    &faults.Config{BatteryFailAt: failAt, BatteryRecoverAt: recoverAt},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Degradations != 1 {
		t.Fatalf("degradations %d, want 1", res.Degradations)
	}
	if res.Faults.BatteryFailures != 1 || res.Faults.BatteryRecoveries != 1 {
		t.Fatalf("battery counters %+v", res.Faults)
	}

	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
	events, err := obs.ReadEvents(&log)
	if err != nil {
		t.Fatal(err)
	}
	var faultsSeen []obs.Event
	var degrades []obs.Event
	for _, ev := range events {
		switch ev.Type {
		case obs.EvFault:
			faultsSeen = append(faultsSeen, ev)
		case obs.EvDegrade:
			degrades = append(degrades, ev)
		}
	}
	if len(faultsSeen) != 2 {
		t.Fatalf("saw %d fault events, want 2", len(faultsSeen))
	}
	if faultsSeen[0].T != int64(failAt) || faultsSeen[0].Fault.Kind != string(faults.KindBatteryFail) {
		t.Fatalf("first fault event %+v at %v", faultsSeen[0].Fault, time.Duration(faultsSeen[0].T))
	}
	if faultsSeen[1].T != int64(recoverAt) || faultsSeen[1].Fault.Kind != string(faults.KindBatteryRecover) {
		t.Fatalf("second fault event %+v at %v", faultsSeen[1].Fault, time.Duration(faultsSeen[1].T))
	}

	// With threshold 1 the battery loss puts ESM into degraded mode at the
	// fault itself; it recovers at the first management run after a full
	// fault-free window (the recovery event restarts the window).
	if len(degrades) != 2 {
		t.Fatalf("saw %d degrade events, want enter+exit", len(degrades))
	}
	enter, exit := degrades[0], degrades[1]
	if !enter.Degrade.Entered || enter.T != int64(failAt) {
		t.Fatalf("enter event %+v at %v", enter.Degrade, time.Duration(enter.T))
	}
	if exit.Degrade.Entered {
		t.Fatal("second degrade event is not an exit")
	}
	if earliest := int64(recoverAt + params.FaultWindow); exit.T < earliest {
		t.Fatalf("exit at %v, before fault-free window elapsed (%v)",
			time.Duration(exit.T), time.Duration(earliest))
	}
}
