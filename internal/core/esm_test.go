package core

import (
	"testing"
	"time"

	"esm/internal/policy"
	"esm/internal/simclock"
	"esm/internal/storage"
	"esm/internal/trace"
)

// policyIface mirrors policy.Policy for the in-package harness.
type policyIface interface {
	policy.Policy
}

type synthResult struct {
	determinations int64
	esmSavedVsIdle float64
	hotCount       int
	p3Moved        int64
	spinUps        int
	period         time.Duration
}

// runPolicyOnSynthetic replays a tiny synthetic mix — one steady P3 item
// on enclosure 0, one P3 item on enclosure 1, burst P1 items on
// enclosures 1..3 — for 40 simulated minutes.
func runPolicyOnSynthetic(t *testing.T, mk func() policyIface) synthResult {
	t.Helper()
	cat := trace.NewCatalog()
	steadyA := cat.Add("steadyA", 1<<30)
	steadyB := cat.Add("steadyB", 1<<30)
	var bursts []trace.ItemID
	for i := 0; i < 6; i++ {
		bursts = append(bursts, cat.Add("burst"+string(rune('0'+i)), 64<<20))
	}

	var recs []trace.LogicalRecord
	dur := 40 * time.Minute
	for tm := time.Duration(0); tm < dur; tm += 2 * time.Second {
		recs = append(recs, trace.LogicalRecord{Time: tm, Item: steadyA, Offset: int64(tm), Size: 8 << 10, Op: trace.OpRead})
		recs = append(recs, trace.LogicalRecord{Time: tm + time.Second, Item: steadyB, Offset: int64(tm), Size: 8 << 10, Op: trace.OpWrite})
	}
	// Each burst item wakes every ~7 minutes for a short read run.
	for i, id := range bursts {
		for start := time.Duration(i) * time.Minute; start < dur; start += 7 * time.Minute {
			for j := 0; j < 10; j++ {
				recs = append(recs, trace.LogicalRecord{
					Time: start + time.Duration(j)*200*time.Millisecond,
					Item: id, Offset: int64(j) << 13, Size: 8 << 10, Op: trace.OpRead,
				})
			}
		}
	}
	trace.SortLogical(recs)

	clk := &simclock.Clock{}
	evq := &simclock.EventQueue{}
	cfg := storage.DefaultConfig(4)
	arr, err := storage.New(cfg, clk, evq, cat)
	if err != nil {
		t.Fatal(err)
	}
	arr.Place(steadyA, 0)
	arr.Place(steadyB, 1)
	for i, id := range bursts {
		arr.Place(id, 1+i%3)
	}

	pol := mk()
	arr.SetPhysicalObserver(func(rec trace.PhysicalRecord) { pol.OnPhysical(rec) })
	arr.SetPowerObserver(func(e int, at time.Duration, on bool) { pol.OnPower(e, at, on) })
	pol.Init(&policy.Context{Array: arr, Catalog: cat, Clock: clk, Queue: evq, End: dur})

	for _, rec := range recs {
		evq.RunUntil(clk, rec.Time)
		pol.OnLogical(rec)
		arr.Submit(rec)
	}
	evq.RunUntil(clk, dur)
	pol.Finish(dur)
	arr.Finish()

	res := synthResult{determinations: pol.Determinations()}
	idleBaseline := cfg.Power.IdleW * dur.Seconds() * float64(cfg.Enclosures)
	res.esmSavedVsIdle = idleBaseline - arr.Meter().EnclosureEnergyJ()
	if d, ok := pol.(*ESM); ok {
		for _, h := range d.Hot() {
			if h {
				res.hotCount++
			}
		}
		res.period = d.Period()
	}
	res.p3Moved = arr.Stats().MigratedBytes
	res.spinUps = arr.Meter().SpinUps()
	return res
}

func TestESMConsolidatesAndSleeps(t *testing.T) {
	cat := trace.NewCatalog()
	hotItem := cat.Add("hot", 512<<20)
	idleItem := cat.Add("idle", 512<<20)

	var recs []trace.LogicalRecord
	dur := 30 * time.Minute
	for tm := time.Duration(0); tm < dur; tm += time.Second {
		recs = append(recs, trace.LogicalRecord{Time: tm, Item: hotItem, Offset: int64(tm % (512 << 20)), Size: 8 << 10, Op: trace.OpRead})
	}
	recs = append(recs, trace.LogicalRecord{Time: time.Minute, Item: idleItem, Size: 8 << 10, Op: trace.OpRead})
	trace.SortLogical(recs)

	clk := &simclock.Clock{}
	evq := &simclock.EventQueue{}
	arr, err := storage.New(storage.DefaultConfig(2), clk, evq, cat)
	if err != nil {
		t.Fatal(err)
	}
	arr.Place(hotItem, 0)
	arr.Place(idleItem, 1)

	d, err := NewESM(DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	arr.SetPhysicalObserver(func(rec trace.PhysicalRecord) { d.OnPhysical(rec) })
	arr.SetPowerObserver(func(e int, at time.Duration, on bool) { d.OnPower(e, at, on) })
	d.Init(&policy.Context{Array: arr, Catalog: cat, Clock: clk, Queue: evq, End: dur})
	for _, rec := range recs {
		evq.RunUntil(clk, rec.Time)
		d.OnLogical(rec)
		arr.Submit(rec)
	}
	evq.RunUntil(clk, dur)
	d.Finish(dur)
	arr.Finish()

	if got := d.Hot(); got == nil || !got[0] || got[1] {
		t.Fatalf("hot flags %v: enclosure 0 should be hot, 1 cold", got)
	}
	if arr.EnclosureOn(1, clk.Now()) {
		t.Fatal("cold enclosure still spun up at end of run")
	}
	if !arr.EnclosureOn(0, clk.Now()) {
		t.Fatal("hot enclosure was spun down")
	}
	if plan := d.LastPlan(); plan == nil || plan.Patterns[hotItem] != P3 {
		t.Fatalf("hot item pattern %v", d.LastPlan())
	}
}

func TestESMAdaptsPeriod(t *testing.T) {
	res := runPolicyOnSynthetic(t, func() policyIface {
		d, err := NewESM(DefaultParams())
		if err != nil {
			t.Fatal(err)
		}
		return d
	})
	if res.period < DefaultParams().MinPeriod {
		t.Fatalf("period %v fell below the floor", res.period)
	}
}

func TestESMValidatesParams(t *testing.T) {
	p := DefaultParams()
	p.Alpha = 0.5
	if _, err := NewESM(p); err == nil {
		t.Fatal("invalid params accepted")
	}
}

func TestESMNameAndAccessors(t *testing.T) {
	d, err := NewESM(DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	if d.Name() != "esm" {
		t.Fatalf("name %q", d.Name())
	}
	if d.Params().Alpha != 1.2 {
		t.Fatal("params accessor broken")
	}
	if d.Hot() != nil || d.LastPlan() != nil {
		t.Fatal("pre-init accessors should be nil")
	}
}

// TestESMTriggerOnColdSpinUps drives a workload whose pattern changes
// mid-run: an item that was idle through the first period suddenly turns
// busy, repeatedly waking its (cold, spun-down) enclosure. Trigger ii of
// §V-D must force a replan well before the scheduled period end.
func TestESMTriggerOnColdSpinUps(t *testing.T) {
	cat := trace.NewCatalog()
	hotItem := cat.Add("hot", 512<<20)
	flips := []trace.ItemID{
		cat.Add("flip0", 512<<20),
		cat.Add("flip1", 512<<20),
		cat.Add("flip2", 512<<20),
	}

	var recs []trace.LogicalRecord
	dur := 60 * time.Minute
	for tm := time.Duration(0); tm < dur; tm += time.Second {
		recs = append(recs, trace.LogicalRecord{Time: tm, Item: hotItem, Offset: int64(tm) % (256 << 20), Size: 8 << 10, Op: trace.OpRead})
	}
	// The flip items sleep for 20 minutes, then issue spaced-out reads
	// that wake their (cold, spun-down) enclosures over and over — gaps
	// just past the spin-down timeout. m = 2·(t_c−t_e)/l_b allows about
	// 2.3 cold power-ons per minute; three enclosures cycling every ~70 s
	// exceed it.
	for i, id := range flips {
		for tm := 20*time.Minute + time.Duration(i)*20*time.Second; tm < dur; tm += 70 * time.Second {
			recs = append(recs, trace.LogicalRecord{Time: tm, Item: id, Offset: int64(tm) % (256 << 20), Size: 8 << 10, Op: trace.OpRead})
		}
	}
	trace.SortLogical(recs)

	clk := &simclock.Clock{}
	evq := &simclock.EventQueue{}
	arr, err := storage.New(storage.DefaultConfig(4), clk, evq, cat)
	if err != nil {
		t.Fatal(err)
	}
	arr.Place(hotItem, 0)
	for i, id := range flips {
		arr.Place(id, 1+i)
	}

	params := DefaultParams()
	// A long period so that any extra determinations must come from the
	// run-time triggers, not period ends.
	params.InitialPeriod = 15 * time.Minute
	params.MinPeriod = 15 * time.Minute
	params.MaxPeriod = 15 * time.Minute
	d, err := NewESM(params)
	if err != nil {
		t.Fatal(err)
	}
	arr.SetPhysicalObserver(func(rec trace.PhysicalRecord) { d.OnPhysical(rec) })
	arr.SetPowerObserver(func(e int, at time.Duration, on bool) { d.OnPower(e, at, on) })
	d.Init(&policy.Context{Array: arr, Catalog: cat, Clock: clk, Queue: evq, End: dur})
	for _, rec := range recs {
		evq.RunUntil(clk, rec.Time)
		d.OnLogical(rec)
		arr.Submit(rec)
	}
	evq.RunUntil(clk, dur)
	d.Finish(dur)
	arr.Finish()

	// Four scheduled period ends fit in the hour; trigger ii must add
	// more.
	if got := d.Determinations(); got <= 4 {
		t.Fatalf("determinations %d: trigger ii never fired", got)
	}
}

// TestESMAblationSwitches checks each disable flag suppresses its lever.
func TestESMAblationSwitches(t *testing.T) {
	base := runAblation(t, DefaultParams())
	noMig := DefaultParams()
	noMig.DisableMigration = true
	offMig := runAblation(t, noMig)
	if offMig.migrated != 0 {
		t.Fatalf("migration disabled but %d bytes moved", offMig.migrated)
	}
	if base.migrated == 0 {
		t.Fatal("baseline ablation run migrated nothing")
	}
	noPre := DefaultParams()
	noPre.DisablePreload = true
	offPre := runAblation(t, noPre)
	if offPre.preloaded != 0 {
		t.Fatalf("preload disabled but %d bytes loaded", offPre.preloaded)
	}
	noWD := DefaultParams()
	noWD.DisableWriteDelay = true
	offWD := runAblation(t, noWD)
	if offWD.delayedWrites != 0 {
		t.Fatalf("write delay disabled but %d writes absorbed", offWD.delayedWrites)
	}
}

type ablationResult struct {
	migrated      int64
	preloaded     int64
	delayedWrites int64
}

func runAblation(t *testing.T, params Params) ablationResult {
	t.Helper()
	cat := trace.NewCatalog()
	hotItem := cat.Add("hot", 256<<20)
	burstR := cat.Add("burstR", 16<<20)
	burstW := cat.Add("burstW", 64<<20)
	p3cold := cat.Add("p3cold", 64<<20)

	var recs []trace.LogicalRecord
	dur := 30 * time.Minute
	for tm := time.Duration(0); tm < dur; tm += time.Second {
		recs = append(recs, trace.LogicalRecord{Time: tm, Item: hotItem, Offset: int64(tm) % (128 << 20), Size: 8 << 10, Op: trace.OpRead})
		recs = append(recs, trace.LogicalRecord{Time: tm + 500*time.Millisecond, Item: p3cold, Offset: int64(tm) % (32 << 20), Size: 8 << 10, Op: trace.OpWrite})
	}
	for start := time.Duration(0); start < dur; start += 4 * time.Minute {
		for j := 0; j < 20; j++ {
			tm := start + time.Duration(j)*250*time.Millisecond
			recs = append(recs, trace.LogicalRecord{Time: tm, Item: burstR, Offset: int64(j) << 13, Size: 8 << 10, Op: trace.OpRead})
			recs = append(recs, trace.LogicalRecord{Time: tm + 100*time.Millisecond, Item: burstW, Offset: int64(j) << 13, Size: 8 << 10, Op: trace.OpWrite})
		}
	}
	trace.SortLogical(recs)

	clk := &simclock.Clock{}
	evq := &simclock.EventQueue{}
	arr, err := storage.New(storage.DefaultConfig(3), clk, evq, cat)
	if err != nil {
		t.Fatal(err)
	}
	arr.Place(hotItem, 0)
	arr.Place(burstR, 1)
	arr.Place(burstW, 1)
	arr.Place(p3cold, 2)

	d, err := NewESM(params)
	if err != nil {
		t.Fatal(err)
	}
	arr.SetPhysicalObserver(func(rec trace.PhysicalRecord) { d.OnPhysical(rec) })
	arr.SetPowerObserver(func(e int, at time.Duration, on bool) { d.OnPower(e, at, on) })
	d.Init(&policy.Context{Array: arr, Catalog: cat, Clock: clk, Queue: evq, End: dur})
	for _, rec := range recs {
		evq.RunUntil(clk, rec.Time)
		d.OnLogical(rec)
		arr.Submit(rec)
	}
	evq.RunUntil(clk, dur)
	d.Finish(dur)
	arr.Finish()
	st := arr.Stats()
	return ablationResult{
		migrated:      st.MigratedBytes,
		preloaded:     st.PreloadedBytes,
		delayedWrites: st.DelayedWrites,
	}
}

// TestESMTriggerOnHotEnclosureGap exercises §V-D trigger i): when a hot
// enclosure is observed idle beyond the break-even time, the
// classification is stale and the management function re-runs before the
// scheduled period end.
func TestESMTriggerOnHotEnclosureGap(t *testing.T) {
	cat := trace.NewCatalog()
	fade := cat.Add("fade", 512<<20)   // busy early, silent later
	idleID := cat.Add("idle", 512<<20) // untouched data on the second enclosure

	var recs []trace.LogicalRecord
	dur := 80 * time.Minute
	// fade is intensely busy for the first 25 minutes, then issues only
	// occasional I/Os separated by long gaps (observable by trigger i).
	// Offsets are unique so every read is a physical I/O, not an LRU hit.
	var seq int64
	nextOff := func() int64 {
		seq++
		return (seq * 64 << 10) % (448 << 20)
	}
	for tm := time.Duration(0); tm < 25*time.Minute; tm += time.Second {
		recs = append(recs, trace.LogicalRecord{Time: tm, Item: fade, Offset: nextOff(), Size: 8 << 10, Op: trace.OpRead})
	}
	for tm := 25 * time.Minute; tm < dur; tm += 3 * time.Minute {
		recs = append(recs, trace.LogicalRecord{Time: tm, Item: fade, Offset: nextOff(), Size: 8 << 10, Op: trace.OpRead})
	}
	trace.SortLogical(recs)

	clk := &simclock.Clock{}
	evq := &simclock.EventQueue{}
	arr, err := storage.New(storage.DefaultConfig(2), clk, evq, cat)
	if err != nil {
		t.Fatal(err)
	}
	arr.Place(fade, 0)
	arr.Place(idleID, 1)

	params := DefaultParams()
	params.InitialPeriod = 20 * time.Minute
	params.MinPeriod = 20 * time.Minute
	params.MaxPeriod = 20 * time.Minute
	d, err := NewESM(params)
	if err != nil {
		t.Fatal(err)
	}
	arr.SetPhysicalObserver(func(rec trace.PhysicalRecord) { d.OnPhysical(rec) })
	arr.SetPowerObserver(func(e int, at time.Duration, on bool) { d.OnPower(e, at, on) })
	d.Init(&policy.Context{Array: arr, Catalog: cat, Clock: clk, Queue: evq, End: dur})
	var detBy39 int64
	for _, rec := range recs {
		evq.RunUntil(clk, rec.Time)
		d.OnLogical(rec)
		arr.Submit(rec)
		if clk.Now() < 39*time.Minute {
			detBy39 = d.Determinations()
		}
	}
	evq.RunUntil(clk, dur)
	d.Finish(dur)
	arr.Finish()

	// The first scheduled run lands at 20 minutes and the next would land
	// at 40; a second determination before the 39-minute mark can only
	// come from trigger i observing the fade item's long physical gaps.
	if detBy39 < 2 {
		t.Fatalf("determinations by 39m = %d: trigger i never fired", detBy39)
	}
	// The replan reclassifies the faded item P1 and its enclosure cold.
	if hot := d.Hot(); hot[0] {
		t.Fatalf("hot flags %v: the faded enclosure should have been reclassified cold", hot)
	}
}
