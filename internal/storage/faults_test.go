package storage

import (
	"errors"
	"math/rand"
	"testing"
	"time"

	"esm/internal/faults"
	"esm/internal/simclock"
	"esm/internal/trace"
)

// spinDown powers enclosure e off by enabling spin-down and letting the
// idle timeout expire on the clock.
func spinDown(t *testing.T, arr *Array, clk *simclock.Clock, e int) {
	t.Helper()
	arr.SetSpinDownEnabled(e, true)
	clk.Advance(2 * arr.cfg.SpinDownTimeout)
	if arr.EnclosureOn(e, clk.Now()) {
		t.Fatalf("enclosure %d still on after idle timeout", e)
	}
}

func TestSpinUpExhaustionFailsIO(t *testing.T) {
	arr, clk, _, ids := testArray(t, 1, 64<<20)
	inj, err := faults.NewInjector(faults.Config{
		Seed: 1, SpinUpFailProb: 1, SpinUpMaxRetries: 2, SpinUpBackoff: time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	arr.SetFaultInjector(inj)
	var events []faults.Event
	arr.SetFaultObserver(func(ev faults.Event) { events = append(events, ev) })
	spinDown(t, arr, clk, 0)

	t0 := clk.Now()
	_, err = arr.Submit(trace.LogicalRecord{Time: t0, Item: ids[0], Size: 8 << 10, Op: trace.OpRead})
	var fe *FaultError
	if !errors.As(err, &fe) {
		t.Fatalf("want *FaultError, got %v", err)
	}
	if fe.Enclosure != 0 || fe.Op != "spin-up" {
		t.Fatalf("fault error %+v", fe)
	}
	if arr.Stats().PhysicalReads != 0 {
		t.Fatal("exhausted spin-up still issued a physical read")
	}
	c := inj.Counters()
	if c.SpinUpFailures != 3 || c.SpinUpExhausted != 1 || c.FailedAppIOs != 1 {
		t.Fatalf("counters %+v", c)
	}

	// Three failed attempts, then exhaustion; each retry waits the doubled
	// backoff on the simulated clock while the enclosure burns a spin-up.
	if len(events) != 4 {
		t.Fatalf("saw %d fault events, want 4", len(events))
	}
	su := arr.cfg.Power.SpinUpTime
	want := []faults.Event{
		{T: t0, Kind: faults.KindSpinUpFail, Enclosure: 0, Attempt: 1},
		{T: t0 + su + time.Second, Kind: faults.KindSpinUpFail, Enclosure: 0, Attempt: 2},
		{T: t0 + 2*su + 3*time.Second, Kind: faults.KindSpinUpFail, Enclosure: 0, Attempt: 3},
		{T: t0 + 3*su + 3*time.Second, Kind: faults.KindSpinUpExhausted, Enclosure: 0},
	}
	for i := range want {
		if events[i] != want[i] {
			t.Fatalf("event %d = %+v, want %+v", i, events[i], want[i])
		}
	}
	// The enclosure stays off and no successful spin-up was counted.
	if arr.EnclosureOn(0, clk.Now()) {
		t.Fatal("enclosure on after exhausted spin-up")
	}
	if arr.Meter().SpinUps() != 0 {
		t.Fatalf("counted %d spin-ups, want 0", arr.Meter().SpinUps())
	}
}

func TestSpinUpRetrySucceedsAfterBackoff(t *testing.T) {
	// Find a seed whose first draw at probability 0.5 fails and whose
	// second succeeds, so the spin-up retries exactly once.
	var seed int64
	for ; ; seed++ {
		rng := rand.New(rand.NewSource(seed))
		if rng.Float64() < 0.5 && rng.Float64() >= 0.5 {
			break
		}
	}
	arr, clk, _, ids := testArray(t, 1, 64<<20)
	inj, err := faults.NewInjector(faults.Config{
		Seed: seed, SpinUpFailProb: 0.5, SpinUpBackoff: time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	arr.SetFaultInjector(inj)
	spinDown(t, arr, clk, 0)

	t0 := clk.Now()
	r, err := arr.Submit(trace.LogicalRecord{Time: t0, Item: ids[0], Size: 8 << 10, Op: trace.OpRead})
	if err != nil {
		t.Fatal(err)
	}
	su := arr.cfg.Power.SpinUpTime
	// Response covers the failed attempt, the backoff and the successful
	// spin-up before any service time.
	if r.Response < 2*su+time.Second {
		t.Fatalf("response %v shorter than retry path %v", r.Response, 2*su+time.Second)
	}
	c := inj.Counters()
	if c.SpinUpFailures != 1 || c.SpinUpExhausted != 0 || c.FailedAppIOs != 0 {
		t.Fatalf("counters %+v", c)
	}
	if arr.Meter().SpinUps() != 1 {
		t.Fatalf("counted %d spin-ups, want 1", arr.Meter().SpinUps())
	}
	if !arr.EnclosureOn(0, clk.Now()) {
		t.Fatal("enclosure off after successful retry")
	}
}

func TestTransientIOInflatesService(t *testing.T) {
	clean, _, _, cids := testArray(t, 1, 64<<20)
	faulty, _, _, fids := testArray(t, 1, 64<<20)
	delay := 100 * time.Millisecond
	inj, err := faults.NewInjector(faults.Config{Seed: 5, TransientIOProb: 1, TransientIODelay: delay})
	if err != nil {
		t.Fatal(err)
	}
	faulty.SetFaultInjector(inj)

	rec := trace.LogicalRecord{Size: 8 << 10, Op: trace.OpRead}
	rec.Item = cids[0]
	rc, err := clean.Submit(rec)
	if err != nil {
		t.Fatal(err)
	}
	rec.Item = fids[0]
	rf, err := faulty.Submit(rec)
	if err != nil {
		t.Fatal(err)
	}
	if want := 2*rc.Response + delay; rf.Response != want {
		t.Fatalf("faulted response %v, want %v (clean %v)", rf.Response, want, rc.Response)
	}
	if c := inj.Counters(); c.TransientIOErrors != 1 {
		t.Fatalf("counters %+v", c)
	}
}

func TestBatteryLossDisablesCacheFunctions(t *testing.T) {
	arr, _, evq, ids := testArray(t, 1, 64<<20, 8<<20)
	inj, err := faults.NewInjector(faults.Config{
		BatteryFailAt: 10 * time.Minute, BatteryRecoverAt: 20 * time.Minute,
	})
	if err != nil {
		t.Fatal(err)
	}
	arr.SetFaultInjector(inj)

	arr.SetWriteDelay(ids[:1])
	arr.Submit(trace.LogicalRecord{Item: ids[0], Size: 1 << 20, Op: trace.OpWrite})
	arr.SetPreload(ids[1:2])
	if !arr.WriteDelayed(ids[0]) || !arr.Preloaded(ids[1]) {
		t.Fatal("cache functions not active before battery loss")
	}

	clk := arr.clk
	evq.RunUntil(clk, 11*time.Minute)
	if arr.BatteryOK() {
		t.Fatal("battery still OK after scheduled failure")
	}
	// The dirty delayed write was destaged immediately and both
	// selections were dropped.
	if arr.Stats().FlushedBytes != 1<<20 {
		t.Fatalf("flushed %d bytes on battery loss", arr.Stats().FlushedBytes)
	}
	if arr.WriteDelayed(ids[0]) || arr.Preloaded(ids[1]) {
		t.Fatal("cache selections survived battery loss")
	}
	// Re-selecting while the battery is down is forced empty.
	arr.SetWriteDelay(ids)
	arr.SetPreload(ids[1:2])
	if arr.WriteDelayed(ids[0]) || arr.Preloaded(ids[1]) {
		t.Fatal("cache selections accepted while battery down")
	}
	// Writes go straight to disk.
	before := arr.Stats().PhysicalWrites
	arr.Submit(trace.LogicalRecord{Time: 11 * time.Minute, Item: ids[0], Size: 8 << 10, Op: trace.OpWrite})
	if arr.Stats().PhysicalWrites != before+1 {
		t.Fatal("write not physical while battery down")
	}

	evq.RunUntil(clk, 21*time.Minute)
	if !arr.BatteryOK() {
		t.Fatal("battery not recovered")
	}
	arr.SetPreload(ids[1:2])
	if !arr.Preloaded(ids[1]) {
		t.Fatal("preload rejected after battery recovery")
	}
	c := inj.Counters()
	if c.BatteryFailures != 1 || c.BatteryRecoveries != 1 {
		t.Fatalf("counters %+v", c)
	}
}

func TestMigrationSkipRunsDoneCallback(t *testing.T) {
	cfg := DefaultConfig(2)
	cat := trace.NewCatalog()
	big := cat.Add("big", cfg.EnclosureCapacity-1<<20)
	small := cat.Add("small", 4<<20)
	clk := &simclock.Clock{}
	evq := &simclock.EventQueue{}
	arr, err := New(cfg, clk, evq, cat)
	if err != nil {
		t.Fatal(err)
	}
	arr.Place(big, 1)
	arr.Place(small, 0)
	done := false
	if err := arr.MigrateItem(small, 1, func() { done = true }); err != nil {
		t.Fatal(err)
	}
	evq.RunUntil(clk, time.Hour)
	if arr.Stats().MigrationsSkipped != 1 {
		t.Fatalf("skipped %d migrations, want 1", arr.Stats().MigrationsSkipped)
	}
	if !done {
		t.Fatal("skipped migration never ran its done callback")
	}
}

func TestDroppedMigrationRunsDoneCallback(t *testing.T) {
	arr, clk, evq, ids := testArray(t, 3, 512<<20, 512<<20)
	var first, second bool
	arr.MigrateItem(ids[0], 2, func() { first = true })
	arr.MigrateItem(ids[1], 2, func() { second = true })
	arr.DropQueuedMigrations()
	if !second {
		t.Fatal("dropped migration never ran its done callback")
	}
	evq.RunUntil(clk, time.Hour)
	if !first {
		t.Fatal("active migration never completed")
	}
}

func TestMigrationBaseStableUnderInterleavedAlloc(t *testing.T) {
	cfg := DefaultConfig(3)
	// ids[0] (256 MB, enclosure 0) migrates to enclosure 1; ids[2]
	// (2 extents, enclosure 2) has an extent relocated to enclosure 1
	// while the copy is in flight, allocating destination space under it.
	arr, clk, evq, ids := testArray(t, 3, 256<<20, 1<<20, 2*cfg.ExtentBytes)
	var writes []trace.PhysicalRecord
	arr.SetPhysicalObserver(func(rec trace.PhysicalRecord) {
		if rec.Op == trace.OpWrite && rec.Enclosure == 1 {
			writes = append(writes, rec)
		}
	})
	if err := arr.MigrateItem(ids[0], 1, nil); err != nil {
		t.Fatal(err)
	}
	// The first chunk has been copied; interleave an allocation on the
	// destination before the remaining chunks land.
	if err := arr.MigrateExtent(ExtentRef{Item: ids[2], Extent: 0}, 1); err != nil {
		t.Fatal(err)
	}
	evq.RunUntil(clk, time.Hour)
	if arr.ItemEnclosure(ids[0]) != 1 {
		t.Fatal("migration did not complete")
	}
	base := arr.items[ids[0]].base
	size := arr.items[ids[0]].size
	extLoc, ok := arr.extents[ExtentRef{Item: ids[2], Extent: 0}]
	if !ok || extLoc.enc != 1 {
		t.Fatalf("extent override %+v,%v", extLoc, ok)
	}
	// The relocated extent must not overlap the migrated item's range.
	if extLoc.base < base+size && base < extLoc.base+cfg.ExtentBytes {
		t.Fatalf("extent [%d,+%d) overlaps migrated item [%d,+%d)",
			extLoc.base, cfg.ExtentBytes, base, size)
	}
	// Every migration chunk landed inside the item's final range: the
	// destination base was reserved at start, not recomputed per chunk.
	var inRange int64
	for _, w := range writes {
		if w.Block >= base && w.Block+int64(w.Size) <= base+size {
			inRange += int64(w.Size)
		}
	}
	if inRange != size {
		t.Fatalf("%d of %d migrated bytes landed in the item's final range", inRange, size)
	}
}

func TestPreloadEvictedOnWrite(t *testing.T) {
	arr, clk, _, ids := testArray(t, 1, 8<<20)
	arr.SetPreload(ids)
	clk.Advance(time.Minute)
	r, err := arr.Submit(trace.LogicalRecord{Time: time.Minute, Item: ids[0], Offset: 4 << 20, Size: 8 << 10, Op: trace.OpRead})
	if err != nil || !r.CacheHit {
		t.Fatalf("preloaded read should hit (%+v, %v)", r, err)
	}
	// A write invalidates the pinned copy: the stale preload data must
	// not serve the read-after-write.
	if _, err := arr.Submit(trace.LogicalRecord{Time: time.Minute, Item: ids[0], Offset: 0, Size: 8 << 10, Op: trace.OpWrite}); err != nil {
		t.Fatal(err)
	}
	if arr.Preloaded(ids[0]) {
		t.Fatal("written item still pinned in preload")
	}
	r, err = arr.Submit(trace.LogicalRecord{Time: time.Minute, Item: ids[0], Offset: 4 << 20, Size: 8 << 10, Op: trace.OpRead})
	if err != nil {
		t.Fatal(err)
	}
	if r.CacheHit {
		t.Fatal("read after write served from stale preload copy")
	}
	// The partition budget was released with the eviction.
	if arr.CacheOccupancy().PreloadUsedBytes != 0 {
		t.Fatalf("preload budget %d still held", arr.CacheOccupancy().PreloadUsedBytes)
	}
}

func TestMigrateItemCopiesOverriddenExtent(t *testing.T) {
	cfg := DefaultConfig(3)
	arr, clk, evq, ids := testArray(t, 3, 2*cfg.ExtentBytes)
	// Relocate extent 1 to enclosure 1 (DDR-style), then migrate the
	// whole item to enclosure 2.
	if err := arr.MigrateExtent(ExtentRef{Item: ids[0], Extent: 1}, 1); err != nil {
		t.Fatal(err)
	}
	reads := map[int]int64{}
	arr.SetPhysicalObserver(func(rec trace.PhysicalRecord) {
		if rec.Op == trace.OpRead {
			reads[int(rec.Enclosure)] += int64(rec.Size)
		}
	})
	if err := arr.MigrateItem(ids[0], 2, nil); err != nil {
		t.Fatal(err)
	}
	evq.RunUntil(clk, time.Hour)
	// The copy read extent 0 from the home enclosure and extent 1 from
	// its override location — not the stale blocks at the original home.
	if reads[0] != cfg.ExtentBytes {
		t.Fatalf("read %d bytes from home enclosure, want %d", reads[0], cfg.ExtentBytes)
	}
	if reads[1] != cfg.ExtentBytes {
		t.Fatalf("read %d bytes from override enclosure, want %d", reads[1], cfg.ExtentBytes)
	}
	if arr.ItemEnclosure(ids[0]) != 2 {
		t.Fatal("migration did not complete")
	}
	// The override is cleared, its allocation released, and its segment
	// no longer resolves on the old enclosure.
	if len(arr.extents) != 0 {
		t.Fatalf("extent overrides survived: %v", arr.extents)
	}
	if arr.Used(1) != 0 {
		t.Fatalf("override allocation not released: used(1) = %d", arr.Used(1))
	}
	if _, ok := arr.ResolveExtent(1, 0); ok {
		t.Fatal("stale override segment still resolves on enclosure 1")
	}
	r, _ := arr.Submit(trace.LogicalRecord{Item: ids[0], Offset: cfg.ExtentBytes + 5, Size: 8 << 10, Op: trace.OpRead})
	if r.Enclosure != 2 {
		t.Fatalf("post-migration extent I/O served by enclosure %d", r.Enclosure)
	}
}
