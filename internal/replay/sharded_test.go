package replay

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"esm/internal/core"
	"esm/internal/faults"
	"esm/internal/obs"
	"esm/internal/policy"
	"esm/internal/storage"
	"esm/internal/trace"
)

// shardedTrace builds a four-enclosure workload with a hot/cold skew,
// mixed reads and writes, and periodic bursts at the cold enclosures —
// enough activity to provoke ESM determinations, migrations, spin-downs
// and spin-ups, i.e. plenty of cross-shard interactions.
func shardedTrace(dur time.Duration, seed int64) (*trace.Catalog, []trace.LogicalRecord, []int) {
	cat := trace.NewCatalog()
	const encls = 4
	var ids []trace.ItemID
	placement := []int{0, 0, 1, 1, 2, 2, 3, 3}
	for i := range placement {
		ids = append(ids, cat.Add(fmt.Sprintf("item%02d", i), 256<<20))
	}
	rng := rand.New(rand.NewSource(seed))
	var recs []trace.LogicalRecord
	for tm := time.Duration(0); tm < dur; tm += time.Duration(500+rng.Intn(1500)) * time.Millisecond {
		// Zipf-ish: the first items take most of the traffic.
		k := rng.Intn(len(ids))
		if rng.Intn(4) != 0 {
			k = rng.Intn(3)
		}
		op := trace.OpRead
		if rng.Intn(4) == 0 {
			op = trace.OpWrite
		}
		recs = append(recs, trace.LogicalRecord{
			Time: tm, Item: ids[k],
			Offset: int64(rng.Intn(64)) * 4096, Size: int32(4096 * (1 + rng.Intn(8))),
			Op: op,
		})
	}
	// Periodic bursts to the coldest enclosure: spin-up pressure.
	for start := 3 * time.Minute; start < dur; start += 7 * time.Minute {
		for j := 0; j < 4; j++ {
			recs = append(recs, trace.LogicalRecord{
				Time: start + time.Duration(j)*250*time.Millisecond,
				Item: ids[6+j%2], Size: 16 << 10, Op: trace.OpRead,
			})
		}
	}
	trace.SortLogical(recs)
	return cat, recs, placement
}

// shardedRunOutput is everything a replay emits that the sharded engine
// must reproduce byte for byte: the Result aggregates, the telemetry
// recorder's JSONL stream, and the flight recorder's CSV.
type shardedRunOutput struct {
	res    *Result
	events []byte
	flight []byte
}

func runForEquality(t *testing.T, mk func() policy.Policy, fc *faults.Config, shards int, dur time.Duration) shardedRunOutput {
	t.Helper()
	cat, recs, placement := shardedTrace(dur, 99)
	var events bytes.Buffer
	rec := obs.New(obs.Options{Sink: obs.NewJSONLSink(&events), Registry: obs.NewRegistry(), Label: "eq"})
	fr := obs.NewFlightRecorder(obs.FlightOptions{Interval: time.Minute})
	res, err := Execute(Run{
		Catalog:   cat,
		Records:   recs,
		Placement: placement,
		Storage:   storage.DefaultConfig(4),
		Policy:    mk(),
		Duration:  dur,
		Shards:    shards,
		Faults:    fc,
		Telemetry: obs.Telemetry{Recorder: rec, Flight: fr},
		Windows: []Window{
			{Name: "w1", Start: 2 * time.Minute, End: 10 * time.Minute},
			{Name: "w2", Start: 12 * time.Minute, End: 20 * time.Minute},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
	var flight bytes.Buffer
	if err := res.Series.WriteCSV(&flight); err != nil {
		t.Fatal(err)
	}
	return shardedRunOutput{res: res, events: events.Bytes(), flight: flight.Bytes()}
}

func compareShardedOutputs(t *testing.T, want, got shardedRunOutput, label string) {
	t.Helper()
	w, g := want.res, got.res
	if w.EnergyJ != g.EnergyJ || w.AvgEnclosureW != g.AvgEnclosureW || w.AvgTotalW != g.AvgTotalW {
		t.Errorf("%s: energy diverged: serial J=%v W=%v/%v, sharded J=%v W=%v/%v",
			label, w.EnergyJ, w.AvgEnclosureW, w.AvgTotalW, g.EnergyJ, g.AvgEnclosureW, g.AvgTotalW)
	}
	if !reflect.DeepEqual(w.Resp, g.Resp) {
		t.Errorf("%s: response stats diverged: serial %d/%v/%v, sharded %d/%v/%v",
			label, w.Resp.Count(), w.Resp.Mean(), w.Resp.Max(), g.Resp.Count(), g.Resp.Mean(), g.Resp.Max())
	}
	if !reflect.DeepEqual(w.Windows, g.Windows) {
		t.Errorf("%s: windows diverged:\nserial  %+v\nsharded %+v", label, w.Windows, g.Windows)
	}
	if w.Storage != g.Storage {
		t.Errorf("%s: storage stats diverged:\nserial  %+v\nsharded %+v", label, w.Storage, g.Storage)
	}
	if w.SpinUps != g.SpinUps || w.Determinations != g.Determinations || w.Degradations != g.Degradations {
		t.Errorf("%s: spinups/determinations/degradations diverged: %d/%d/%d vs %d/%d/%d",
			label, w.SpinUps, w.Determinations, w.Degradations, g.SpinUps, g.Determinations, g.Degradations)
	}
	if w.Faults != g.Faults {
		t.Errorf("%s: fault counters diverged:\nserial  %+v\nsharded %+v", label, w.Faults, g.Faults)
	}
	if !reflect.DeepEqual(w.PowerSeries, g.PowerSeries) {
		t.Errorf("%s: power series diverged (%d vs %d buckets)", label, len(w.PowerSeries), len(g.PowerSeries))
	}
	if !reflect.DeepEqual(w.StateMix, g.StateMix) {
		t.Errorf("%s: state mix diverged:\nserial  %+v\nsharded %+v", label, w.StateMix, g.StateMix)
	}
	if !bytes.Equal(want.events, got.events) {
		i := 0
		for i < len(want.events) && i < len(got.events) && want.events[i] == got.events[i] {
			i++
		}
		lo, hi := i-80, i+80
		if lo < 0 {
			lo = 0
		}
		ctx := func(b []byte) string {
			h := hi
			if h > len(b) {
				h = len(b)
			}
			if lo >= h {
				return "<EOF>"
			}
			return string(b[lo:h])
		}
		t.Errorf("%s: recorder JSONL diverged at byte %d:\nserial  …%s…\nsharded …%s…",
			label, i, ctx(want.events), ctx(got.events))
	}
	if !bytes.Equal(want.flight, got.flight) {
		t.Errorf("%s: flight CSV diverged (%d vs %d bytes)", label, len(want.flight), len(got.flight))
	}
}

// TestShardedMatchesSerial is the tentpole's acceptance gate: across
// policies × fault specs × shard counts, the sharded engine must
// reproduce the serial engine's results byte for byte — same joules (to
// the bit), same response aggregates, same recorder event stream, same
// flight-recorder CSV.
func TestShardedMatchesSerial(t *testing.T) {
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
		{"timeout", func() policy.Policy { return policy.FixedTimeout{} }},
		{"none", func() policy.Policy { return policy.NoPowerSaving{} }},
	}
	faultSpecs := []struct {
		name string
		fc   *faults.Config
	}{
		{"nofaults", nil},
		{"spinupfail", &faults.Config{Seed: 11, SpinUpFailProb: 0.3, SpinUpBackoff: time.Second}},
		{"battery", &faults.Config{Seed: 5, TransientIOProb: 0.05, BatteryFailAt: 8 * time.Minute, BatteryRecoverAt: 14 * time.Minute}},
	}
	for _, pc := range policies {
		for _, fs := range faultSpecs {
			serial := runForEquality(t, pc.mk, fs.fc, 1, dur)
			for _, shards := range []int{2, 4} {
				label := fmt.Sprintf("%s/%s/shards=%d", pc.name, fs.name, shards)
				sharded := runForEquality(t, pc.mk, fs.fc, shards, dur)
				compareShardedOutputs(t, serial, sharded, label)
			}
		}
	}
}

// TestShardedAdversarialMigrations hammers the barrier edges: ESM with a
// short monitoring period over a workload whose hot set shifts every few
// minutes, forcing migrations (cross-shard cache and placement mutations)
// to land between batched I/O of both the source and destination shards.
// Run under -race this doubles as the engine's data-race gate.
func TestShardedAdversarialMigrations(t *testing.T) {
	dur := 40 * time.Minute
	cat := trace.NewCatalog()
	placement := []int{0, 0, 1, 1, 2, 2, 3, 3}
	var ids []trace.ItemID
	for i := range placement {
		ids = append(ids, cat.Add(fmt.Sprintf("adv%02d", i), 192<<20))
	}
	rng := rand.New(rand.NewSource(1234))
	var recs []trace.LogicalRecord
	for tm := time.Duration(0); tm < dur; tm += time.Duration(300+rng.Intn(700)) * time.Millisecond {
		// The hot pair rotates across enclosure groups every 5 minutes,
		// so every determination sees a different skew and keeps moving
		// data between shards.
		phase := int(tm/(5*time.Minute)) % len(ids)
		k := (phase + rng.Intn(2)) % len(ids)
		if rng.Intn(5) == 0 {
			k = rng.Intn(len(ids))
		}
		op := trace.OpRead
		if rng.Intn(3) == 0 {
			op = trace.OpWrite
		}
		recs = append(recs, trace.LogicalRecord{
			Time: tm, Item: ids[k],
			Offset: int64(rng.Intn(128)) * 4096, Size: int32(4096 * (1 + rng.Intn(4))),
			Op: op,
		})
	}
	trace.SortLogical(recs)

	run := func(shards int) ([]byte, *Result) {
		p := core.DefaultParams()
		p.InitialPeriod = 3 * time.Minute
		p.MinPeriod = 2 * time.Minute
		esm, err := core.NewESM(p)
		if err != nil {
			t.Fatal(err)
		}
		var events bytes.Buffer
		rec := obs.New(obs.Options{Sink: obs.NewJSONLSink(&events), Registry: obs.NewRegistry(), Label: "adv"})
		res, err := Execute(Run{
			Catalog:   cat,
			Records:   recs,
			Placement: placement,
			Storage:   storage.DefaultConfig(4),
			Policy:    esm,
			Duration:  dur,
			Shards:    shards,
			Telemetry: obs.Telemetry{Recorder: rec},
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := rec.Close(); err != nil {
			t.Fatal(err)
		}
		return events.Bytes(), res
	}

	serialEvents, serialRes := run(1)
	if serialRes.Storage.Migrations == 0 {
		t.Fatal("adversarial workload provoked no migrations; the test exercises nothing")
	}
	for _, shards := range []int{2, 4} {
		gotEvents, gotRes := run(shards)
		if !bytes.Equal(serialEvents, gotEvents) {
			i := 0
			for i < len(serialEvents) && i < len(gotEvents) && serialEvents[i] == gotEvents[i] {
				i++
			}
			t.Errorf("shards=%d: event stream diverged at byte %d of %d/%d",
				shards, i, len(serialEvents), len(gotEvents))
		}
		if serialRes.EnergyJ != gotRes.EnergyJ || serialRes.Storage != gotRes.Storage ||
			!reflect.DeepEqual(serialRes.Resp, gotRes.Resp) {
			t.Errorf("shards=%d: results diverged: J %v vs %v, stats %+v vs %+v",
				shards, serialRes.EnergyJ, gotRes.EnergyJ, serialRes.Storage, gotRes.Storage)
		}
	}
}

// TestShardedTracerSemanticEquality runs the engines with a live tracer
// and requires the same latency summary and energy attribution. (Raw
// sink span order may differ in one documented corner — a replan fired
// from a deferred op's physical observation — so the comparison is on
// the derived summaries, which aggregate per item and cause.)
func TestShardedTracerSemanticEquality(t *testing.T) {
	dur := 20 * time.Minute
	run := func(shards int) *Result {
		cat, recs, placement := shardedTrace(dur, 7)
		p := core.DefaultParams()
		p.InitialPeriod = 4 * time.Minute
		esm, err := core.NewESM(p)
		if err != nil {
			t.Fatal(err)
		}
		trc := obs.NewTracer(obs.TracerOptions{})
		res, err := Execute(Run{
			Catalog:   cat,
			Records:   recs,
			Placement: placement,
			Storage:   storage.DefaultConfig(4),
			Policy:    esm,
			Duration:  dur,
			Shards:    shards,
			Telemetry: obs.Telemetry{Tracer: trc},
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	serial := run(1)
	for _, shards := range []int{2, 4} {
		got := run(shards)
		if !reflect.DeepEqual(serial.Latency, got.Latency) {
			t.Errorf("shards=%d: latency summary diverged:\nserial  %+v\nsharded %+v",
				shards, serial.Latency, got.Latency)
		}
		if !reflect.DeepEqual(serial.Attribution, got.Attribution) {
			t.Errorf("shards=%d: energy attribution diverged", shards)
		}
	}
}

// TestShardedFallbacks pins the serial fallbacks: shards ≤ 1, more
// shards than enclosures (clamped), and closed-loop runs all go through
// (or match) the serial engine.
func TestShardedFallbacks(t *testing.T) {
	cat, recs, placement := steadyTrace(2, 10*time.Second, 5*time.Minute)
	base := Run{
		Catalog:   cat,
		Records:   recs,
		Placement: placement,
		Storage:   storage.DefaultConfig(2),
		Policy:    policy.NoPowerSaving{},
		Duration:  5 * time.Minute,
	}
	serial, err := Execute(base)
	if err != nil {
		t.Fatal(err)
	}
	for _, shards := range []int{0, 1, 2, 16} {
		r := base
		r.Shards = shards
		got, err := Execute(r)
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		if got.EnergyJ != serial.EnergyJ || !reflect.DeepEqual(got.Resp, serial.Resp) {
			t.Errorf("shards=%d diverged from serial", shards)
		}
	}
	// Closed loop with shards requested: falls back to the serial
	// closed-loop engine and still succeeds.
	r := base
	r.Shards = 4
	r.ClosedLoop = true
	if _, err := Execute(r); err != nil {
		t.Fatalf("closed-loop with shards: %v", err)
	}
}
