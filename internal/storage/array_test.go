package storage

import (
	"fmt"
	"math"
	"strings"
	"testing"
	"time"

	"esm/internal/simclock"
	"esm/internal/trace"
)

// testArray builds an array with n enclosures and items of the given
// sizes, placed round-robin.
func testArray(t *testing.T, n int, sizes ...int64) (*Array, *simclock.Clock, *simclock.EventQueue, []trace.ItemID) {
	t.Helper()
	cat := trace.NewCatalog()
	ids := make([]trace.ItemID, len(sizes))
	for i, s := range sizes {
		ids[i] = cat.Add(itemName(i), s)
	}
	clk := &simclock.Clock{}
	evq := &simclock.EventQueue{}
	arr, err := New(DefaultConfig(n), clk, evq, cat)
	if err != nil {
		t.Fatal(err)
	}
	for i, id := range ids {
		if err := arr.Place(id, i%n); err != nil {
			t.Fatal(err)
		}
	}
	return arr, clk, evq, ids
}

func itemName(i int) string {
	return "item" + string(rune('A'+i))
}

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig(10).Validate(); err != nil {
		t.Fatal(err)
	}
	bad := DefaultConfig(0)
	if err := bad.Validate(); err == nil {
		t.Fatal("zero enclosures accepted")
	}
	c := DefaultConfig(2)
	c.PreloadCacheBytes = c.CacheBytes
	c.WriteDelayCacheBytes = c.CacheBytes
	if err := c.Validate(); err == nil {
		t.Fatal("oversized partitions accepted")
	}
	c = DefaultConfig(2)
	c.DirtyBlockRate = 1.5
	if err := c.Validate(); err == nil {
		t.Fatal("dirty rate > 1 accepted")
	}
}

func TestPlaceTwiceFails(t *testing.T) {
	arr, _, _, ids := testArray(t, 2, 1<<20)
	if err := arr.Place(ids[0], 1); err == nil {
		t.Fatal("double placement accepted")
	}
}

func TestPlaceOverCapacityFails(t *testing.T) {
	cat := trace.NewCatalog()
	big := cat.Add("big", 2_000_000_000_000)
	clk := &simclock.Clock{}
	evq := &simclock.EventQueue{}
	arr, err := New(DefaultConfig(1), clk, evq, cat)
	if err != nil {
		t.Fatal(err)
	}
	if err := arr.Place(big, 0); err == nil {
		t.Fatal("over-capacity placement accepted")
	}
}

func TestSubmitReadMissAndHit(t *testing.T) {
	arr, _, _, ids := testArray(t, 1, 64<<20)
	rec := trace.LogicalRecord{Item: ids[0], Offset: 0, Size: 8 << 10, Op: trace.OpRead}
	r1, _ := arr.Submit(rec)
	if r1.CacheHit {
		t.Fatal("first read should miss")
	}
	if r1.Response <= 0 || r1.Enclosure != 0 {
		t.Fatalf("miss result %+v", r1)
	}
	r2, _ := arr.Submit(rec)
	if !r2.CacheHit {
		t.Fatal("repeat read should hit the general LRU")
	}
	if r2.Response != arr.Config().CacheHitTime {
		t.Fatalf("hit response %v", r2.Response)
	}
	if arr.Stats().CacheHits != 1 || arr.Stats().PhysicalReads != 1 {
		t.Fatalf("stats %+v", arr.Stats())
	}
}

func TestSubmitWriteIsPhysicalWhenNotDelayed(t *testing.T) {
	arr, _, _, ids := testArray(t, 1, 64<<20)
	r, _ := arr.Submit(trace.LogicalRecord{Item: ids[0], Size: 8 << 10, Op: trace.OpWrite})
	if r.CacheHit {
		t.Fatal("undelayed write should be physical")
	}
	if arr.Stats().PhysicalWrites != 1 {
		t.Fatalf("stats %+v", arr.Stats())
	}
}

func TestWriteDelayAbsorbsWrites(t *testing.T) {
	arr, _, _, ids := testArray(t, 1, 64<<20)
	arr.SetWriteDelay(ids)
	if !arr.WriteDelayed(ids[0]) {
		t.Fatal("item not write-delayed")
	}
	r, _ := arr.Submit(trace.LogicalRecord{Item: ids[0], Size: 8 << 10, Op: trace.OpWrite})
	if !r.CacheHit || r.Response != arr.Config().CacheAckTime {
		t.Fatalf("delayed write result %+v", r)
	}
	if arr.Stats().PhysicalWrites != 0 || arr.Stats().DelayedWrites != 1 {
		t.Fatalf("stats %+v", arr.Stats())
	}
	// A read of the freshly written page is served from cache.
	rr, _ := arr.Submit(trace.LogicalRecord{Item: ids[0], Size: 8 << 10, Op: trace.OpRead})
	if !rr.CacheHit {
		t.Fatal("read of dirty page should hit")
	}
}

func TestWriteDelayFlushOnDirtyRate(t *testing.T) {
	arr, _, _, ids := testArray(t, 1, 4<<30)
	arr.SetWriteDelay(ids)
	cfg := arr.Config()
	threshold := int64(cfg.DirtyBlockRate * float64(cfg.WriteDelayCacheBytes))
	var written int64
	for written <= threshold {
		arr.Submit(trace.LogicalRecord{Item: ids[0], Offset: written, Size: 1 << 20, Op: trace.OpWrite})
		written += 1 << 20
	}
	if arr.Stats().FlushedBytes < threshold {
		t.Fatalf("flushed %d bytes, want >= %d", arr.Stats().FlushedBytes, threshold)
	}
	if arr.Stats().PhysicalWrites == 0 {
		t.Fatal("flush issued no physical writes")
	}
}

func TestWriteDelayFlushOnDeselect(t *testing.T) {
	arr, _, _, ids := testArray(t, 1, 64<<20)
	arr.SetWriteDelay(ids)
	arr.Submit(trace.LogicalRecord{Item: ids[0], Size: 1 << 20, Op: trace.OpWrite})
	arr.SetWriteDelay(nil)
	if arr.Stats().FlushedBytes != 1<<20 {
		t.Fatalf("flushed %d bytes on deselect, want 1 MiB", arr.Stats().FlushedBytes)
	}
}

// TestWriteDelayDeselectDestagesInItemOrder checks that items leaving
// the write-delay set destage in ascending ItemID order, so the
// enclosure queue (and with it the run's energy) is reproducible.
func TestWriteDelayDeselectDestagesInItemOrder(t *testing.T) {
	sizes := make([]int64, 12)
	for i := range sizes {
		sizes[i] = 64 << 20
	}
	arr, _, _, ids := testArray(t, 1, sizes...)
	arr.SetWriteDelay(ids)
	for i := range ids {
		// Dirty the items in a scrambled order.
		it := ids[(i*5)%len(ids)]
		arr.Submit(trace.LogicalRecord{Item: it, Size: 1 << 20, Op: trace.OpWrite})
	}
	var got []trace.ItemID
	arr.SetPhysicalObserver(func(rec trace.PhysicalRecord) {
		ref, ok := arr.ResolveExtent(int(rec.Enclosure), rec.Block)
		if !ok || rec.Op != trace.OpWrite {
			t.Fatalf("unexpected destage I/O %+v", rec)
		}
		got = append(got, ref.Item)
	})
	arr.SetWriteDelay(nil)
	if len(got) != len(ids) {
		t.Fatalf("%d destage writes, want %d", len(got), len(ids))
	}
	for i, it := range got {
		if it != ids[i] {
			t.Fatalf("destage order %v, want ascending ItemIDs %v", got, ids)
		}
	}
}

func TestFlushAll(t *testing.T) {
	arr, _, _, ids := testArray(t, 1, 64<<20)
	arr.SetWriteDelay(ids)
	arr.Submit(trace.LogicalRecord{Item: ids[0], Size: 2 << 20, Op: trace.OpWrite})
	arr.FlushAll()
	if arr.Stats().FlushedBytes != 2<<20 {
		t.Fatalf("flushed %d", arr.Stats().FlushedBytes)
	}
}

func TestPreloadServesReads(t *testing.T) {
	arr, clk, _, ids := testArray(t, 1, 8<<20)
	arr.SetPreload(ids)
	if !arr.Preloaded(ids[0]) {
		t.Fatal("item not pinned")
	}
	if arr.Stats().PreloadedBytes != 8<<20 {
		t.Fatalf("preloaded %d bytes", arr.Stats().PreloadedBytes)
	}
	// Before the load completes, reads still go to the enclosure.
	r, _ := arr.Submit(trace.LogicalRecord{Item: ids[0], Size: 8 << 10, Op: trace.OpRead})
	if r.CacheHit {
		t.Fatal("read before load completion should miss")
	}
	clk.Advance(time.Minute)
	r, _ = arr.Submit(trace.LogicalRecord{Time: time.Minute, Item: ids[0], Offset: 4 << 20, Size: 8 << 10, Op: trace.OpRead})
	if !r.CacheHit {
		t.Fatal("read after load completion should hit")
	}
}

func TestPreloadBudgetIsPriorityOrdered(t *testing.T) {
	cfg := DefaultConfig(1)
	sizes := []int64{cfg.PreloadCacheBytes - 1<<20, 4 << 20, 8 << 20}
	arr, _, _, ids := testArray(t, 1, sizes...)
	// Pin the big one first.
	arr.SetPreload([]trace.ItemID{ids[0]})
	if !arr.Preloaded(ids[0]) {
		t.Fatal("big item not pinned")
	}
	// A new selection putting the small items first evicts the big one.
	arr.SetPreload([]trace.ItemID{ids[1], ids[2], ids[0]})
	if !arr.Preloaded(ids[1]) || !arr.Preloaded(ids[2]) {
		t.Fatal("priority items not pinned")
	}
	if arr.Preloaded(ids[0]) {
		t.Fatal("stale low-priority item still pinned over budget")
	}
}

func TestPreloadKeepsLoadedItems(t *testing.T) {
	arr, _, _, ids := testArray(t, 1, 4<<20, 4<<20)
	arr.SetPreload([]trace.ItemID{ids[0]})
	before := arr.Stats().PreloadedBytes
	arr.SetPreload([]trace.ItemID{ids[0], ids[1]})
	// ids[0] must not be re-loaded.
	if got := arr.Stats().PreloadedBytes; got != before+4<<20 {
		t.Fatalf("preloaded bytes %d, want %d", got, before+4<<20)
	}
}

func TestMigrateItemMovesData(t *testing.T) {
	arr, clk, evq, ids := testArray(t, 2, 256<<20)
	if arr.ItemEnclosure(ids[0]) != 0 {
		t.Fatal("unexpected initial placement")
	}
	done := false
	if err := arr.MigrateItem(ids[0], 1, func() { done = true }); err != nil {
		t.Fatal(err)
	}
	evq.RunUntil(clk, time.Hour)
	if !done {
		t.Fatal("migration did not complete")
	}
	if arr.ItemEnclosure(ids[0]) != 1 {
		t.Fatalf("item on enclosure %d after migration", arr.ItemEnclosure(ids[0]))
	}
	if arr.Stats().MigratedBytes != 256<<20 {
		t.Fatalf("migrated %d bytes", arr.Stats().MigratedBytes)
	}
	if arr.Used(0) != 0 || arr.Used(1) != 256<<20 {
		t.Fatalf("used after migration: %d / %d", arr.Used(0), arr.Used(1))
	}
}

func TestMigrationThrottleTiming(t *testing.T) {
	arr, clk, evq, ids := testArray(t, 2, 1<<30)
	cfg := arr.Config()
	start := clk.Now()
	var doneAt time.Duration
	if err := arr.MigrateItem(ids[0], 1, func() { doneAt = clk.Now() }); err != nil {
		t.Fatal(err)
	}
	evq.RunUntil(clk, time.Hour)
	wantMin := time.Duration(float64(1<<30) / cfg.MigrationBps * float64(time.Second) * 0.9)
	if doneAt-start < wantMin {
		t.Fatalf("1 GiB migration finished in %v, throttle is %v B/s", doneAt-start, cfg.MigrationBps)
	}
}

func TestMigrateToSameEnclosureIsNoop(t *testing.T) {
	arr, _, _, ids := testArray(t, 2, 1<<20)
	done := false
	if err := arr.MigrateItem(ids[0], 0, func() { done = true }); err != nil {
		t.Fatal(err)
	}
	if !done || arr.Stats().MigratedBytes != 0 {
		t.Fatal("same-enclosure migration should complete immediately")
	}
}

func TestMigrationsRunOneAtATime(t *testing.T) {
	arr, clk, evq, ids := testArray(t, 3, 512<<20, 512<<20)
	var order []int
	arr.MigrateItem(ids[0], 2, func() { order = append(order, 0) })
	arr.MigrateItem(ids[1], 2, func() { order = append(order, 1) })
	evq.RunUntil(clk, time.Hour)
	if len(order) != 2 || order[0] != 0 || order[1] != 1 {
		t.Fatalf("migration completion order %v", order)
	}
}

func TestMigrationSkippedWhenDestinationFull(t *testing.T) {
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
	if err := arr.MigrateItem(small, 1, nil); err != nil {
		t.Fatal(err)
	}
	evq.RunUntil(clk, time.Hour)
	if arr.Stats().MigrationsSkipped != 1 {
		t.Fatalf("skipped %d migrations, want 1", arr.Stats().MigrationsSkipped)
	}
	if arr.ItemEnclosure(small) != 0 {
		t.Fatal("item moved despite full destination")
	}
}

func TestDropQueuedMigrations(t *testing.T) {
	arr, clk, evq, ids := testArray(t, 3, 512<<20, 512<<20)
	arr.MigrateItem(ids[0], 2, nil)
	arr.MigrateItem(ids[1], 2, nil)
	arr.DropQueuedMigrations()
	evq.RunUntil(clk, time.Hour)
	// The first migration was already active and completes; the queued
	// one is dropped.
	if arr.ItemEnclosure(ids[0]) != 2 {
		t.Fatal("active migration should complete")
	}
	if arr.ItemEnclosure(ids[1]) != 1 {
		t.Fatal("queued migration should have been dropped")
	}
}

func TestMigrationFlushesDirtyWrites(t *testing.T) {
	arr, clk, evq, ids := testArray(t, 2, 64<<20)
	arr.SetWriteDelay(ids)
	arr.Submit(trace.LogicalRecord{Item: ids[0], Size: 1 << 20, Op: trace.OpWrite})
	arr.MigrateItem(ids[0], 1, nil)
	evq.RunUntil(clk, time.Hour)
	if arr.Stats().FlushedBytes != 1<<20 {
		t.Fatalf("flushed %d bytes before migration", arr.Stats().FlushedBytes)
	}
}

func TestMigrateExtentAndResolve(t *testing.T) {
	cfg := DefaultConfig(2)
	arr, _, _, ids := testArray(t, 2, 3*cfg.ExtentBytes)
	item := ids[0]
	ref, ok := arr.ResolveExtent(0, cfg.ExtentBytes+5)
	if !ok || ref.Item != item || ref.Extent != 1 {
		t.Fatalf("resolve = %+v,%v", ref, ok)
	}
	if err := arr.MigrateExtent(ref, 1); err != nil {
		t.Fatal(err)
	}
	// Subsequent I/O to extent 1 lands on enclosure 1.
	r, _ := arr.Submit(trace.LogicalRecord{Item: item, Offset: cfg.ExtentBytes + 1024, Size: 8 << 10, Op: trace.OpRead})
	if r.Enclosure != 1 {
		t.Fatalf("extent I/O served by enclosure %d", r.Enclosure)
	}
	// Extent 0 stays on the home enclosure.
	r, _ = arr.Submit(trace.LogicalRecord{Item: item, Offset: 0, Size: 8 << 10, Op: trace.OpRead})
	if r.Enclosure != 0 {
		t.Fatalf("home extent served by enclosure %d", r.Enclosure)
	}
	if arr.Stats().MigratedBytes != cfg.ExtentBytes {
		t.Fatalf("migrated %d bytes", arr.Stats().MigratedBytes)
	}
	// The remapped extent resolves at its new home.
	if got, ok := arr.ResolveExtent(1, arr.enc[1].allocCursor-1); !ok || got.Item != item {
		t.Fatalf("resolve at destination = %+v,%v", got, ok)
	}
}

func TestMigrateItemClearsExtentOverrides(t *testing.T) {
	cfg := DefaultConfig(3)
	arr, clk, evq, ids := testArray(t, 3, 2*cfg.ExtentBytes)
	ref := ExtentRef{Item: ids[0], Extent: 1}
	if err := arr.MigrateExtent(ref, 1); err != nil {
		t.Fatal(err)
	}
	if err := arr.MigrateItem(ids[0], 2, nil); err != nil {
		t.Fatal(err)
	}
	evq.RunUntil(clk, time.Hour)
	r, _ := arr.Submit(trace.LogicalRecord{Item: ids[0], Offset: cfg.ExtentBytes + 5, Size: 8 << 10, Op: trace.OpRead})
	if r.Enclosure != 2 {
		t.Fatalf("extent override survived item migration: enclosure %d", r.Enclosure)
	}
	if arr.Used(1) != 0 {
		t.Fatalf("override allocation not released: used(1) = %d", arr.Used(1))
	}
}

func TestPhysicalObserverSeesAllTraffic(t *testing.T) {
	arr, clk, evq, ids := testArray(t, 2, 64<<20)
	var count int
	arr.SetPhysicalObserver(func(rec trace.PhysicalRecord) { count++ })
	arr.Submit(trace.LogicalRecord{Item: ids[0], Size: 8 << 10, Op: trace.OpRead})
	arr.MigrateItem(ids[0], 1, nil)
	evq.RunUntil(clk, time.Hour)
	if count < 3 { // 1 app read + at least 1 migration read + 1 write
		t.Fatalf("observer saw %d records", count)
	}
}

func TestSpinDownControlAndMeter(t *testing.T) {
	arr, clk, evq, _ := testArray(t, 2, 1<<20)
	arr.SetSpinDownEnabled(0, true)
	if !arr.SpinDownEnabled(0) || arr.SpinDownEnabled(1) {
		t.Fatal("spin-down flags wrong")
	}
	evq.RunUntil(clk, 10*time.Minute)
	arr.Finish()
	if arr.EnclosureOn(0, clk.Now()) {
		t.Fatal("enclosure 0 should be off")
	}
	if !arr.EnclosureOn(1, clk.Now()) {
		t.Fatal("enclosure 1 should be on")
	}
	m := arr.Meter()
	if m.Enclosure(0).EnergyJ() >= m.Enclosure(1).EnergyJ() {
		t.Fatal("spun-down enclosure used at least as much energy")
	}
}

func TestSubmitToUnplacedItemErrors(t *testing.T) {
	cat := trace.NewCatalog()
	id := cat.Add("x", 1<<20)
	clk := &simclock.Clock{}
	evq := &simclock.EventQueue{}
	arr, _ := New(DefaultConfig(1), clk, evq, cat)
	if _, err := arr.Submit(trace.LogicalRecord{Item: id, Size: 1, Op: trace.OpRead}); err == nil {
		t.Fatal("I/O to unplaced item accepted")
	}
	if arr.Stats().PhysicalReads != 0 {
		t.Fatal("failed submit issued a physical I/O")
	}
}

// TestSubmitRejectsOffsetsOutsidePageRange: the cache's packed page key
// covers page indexes [0, 2^32) only, so Submit rejects a
// negative offset or a span reaching page 2^32, naming item and offset,
// and accept the last page in range.
func TestSubmitRejectsOffsetsOutsidePageRange(t *testing.T) {
	arr, _, _, ids := testArray(t, 1, 1<<20)
	edge := int64(1<<32) * arr.cfg.CachePageBytes // first byte of page 2^32
	for _, rec := range []trace.LogicalRecord{
		{Item: ids[0], Offset: -1, Size: 4096, Op: trace.OpRead},
		{Item: ids[0], Offset: -arr.cfg.CachePageBytes, Size: 4096, Op: trace.OpWrite},
		{Item: ids[0], Offset: edge, Size: 1, Op: trace.OpRead},
		{Item: ids[0], Offset: edge - 1, Size: 2, Op: trace.OpRead},
		{Item: ids[0], Offset: math.MaxInt64 - 1, Size: 4096, Op: trace.OpRead},
	} {
		want := fmt.Sprintf("item %d at offset %d outside the cache page range", rec.Item, rec.Offset)
		if _, err := arr.Submit(rec); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("Submit(off %d) error %v, want %q", rec.Offset, err, want)
		}
	}
	if st := arr.Stats(); st.PhysicalReads+st.PhysicalWrites != 0 {
		t.Fatal("rejected I/O reached an enclosure")
	}
	last := trace.LogicalRecord{Item: ids[0], Offset: edge - 4096, Size: 4096, Op: trace.OpRead}
	if _, err := arr.Submit(last); err != nil {
		t.Fatalf("last page in range rejected: %v", err)
	}
	if res, err := arr.Submit(last); err != nil || !res.CacheHit {
		t.Fatalf("last page not cached: %+v %v", res, err)
	}
}
