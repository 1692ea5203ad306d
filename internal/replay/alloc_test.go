package replay

import (
	"fmt"
	"testing"
	"time"

	"esm/internal/metrics"
	"esm/internal/policy"
	"esm/internal/simclock"
	"esm/internal/storage"
	"esm/internal/trace"
)

// TestUntracedRecordPathZeroAllocs is the allocation regression gate for
// the untraced per-record hot path: event dispatch, the policy callback,
// the cache-served submit and the response aggregation must not allocate
// in steady state. Event pooling in simclock and the cache lookup path
// keep this at exactly zero; a regression here silently costs every
// record of every replay.
func TestUntracedRecordPathZeroAllocs(t *testing.T) {
	cat := trace.NewCatalog()
	var ids []trace.ItemID
	for i := 0; i < 4; i++ {
		ids = append(ids, cat.Add(fmt.Sprintf("hot%d", i), 64<<20))
	}
	var clk simclock.Clock
	var evq simclock.EventQueue
	arr, err := storage.New(storage.DefaultConfig(2), &clk, &evq, cat)
	if err != nil {
		t.Fatal(err)
	}
	for i, id := range ids {
		if err := arr.Place(id, i%2); err != nil {
			t.Fatal(err)
		}
	}
	recs := make([]trace.LogicalRecord, 0, 64)
	for i := 0; i < 64; i++ {
		recs = append(recs, trace.LogicalRecord{
			Item: ids[i%len(ids)], Offset: int64(i%8) * 4096, Size: 4096, Op: trace.OpRead,
		})
	}
	// Warm the general LRU so the measured loop is all cache hits — the
	// steady state of a hot working set.
	for _, rec := range recs {
		if _, err := arr.Submit(rec); err != nil {
			t.Fatal(err)
		}
	}

	pol := policy.NoPowerSaving{}
	var resp metrics.ResponseStats
	limit := clk.Now()
	allocs := testing.AllocsPerRun(200, func() {
		for _, rec := range recs {
			evq.RunUntil(&clk, limit)
			pol.OnLogical(rec)
			out, err := arr.Submit(rec)
			if err != nil {
				t.Fatal(err)
			}
			if !out.CacheHit {
				t.Fatal("steady-state read missed the cache; the gate measures the wrong path")
			}
			resp.Add(rec.Op, out.Response)
		}
	})
	if allocs != 0 {
		t.Fatalf("untraced record path allocates %.3f/op (%.4f per record), want 0",
			allocs, allocs/float64(len(recs)))
	}
}

// TestClosedLoopSteadyStateAllocs pins both closed-loop engines'
// marginal allocation cost per record at zero: the demux's ring buffers
// cursors borrow from the free stack and its heap, and the item feed's
// batches, must reach a steady footprint, after which doubling the
// record count adds no allocations. (Fixed setup costs — the cursor
// slots, the source adapter, initial ring growth, each stream's
// coroutine and first batch — cancel in the margin.) The item feed is
// measured inline: testing.AllocsPerRun runs at GOMAXPROCS 1.
func TestClosedLoopSteadyStateAllocs(t *testing.T) {
	const n = 2000
	items := []trace.ItemID{0, 1, 2, 3}
	recs := make([]trace.LogicalRecord, 0, 2*n)
	for i := 0; i < 2*n; i++ {
		recs = append(recs, trace.LogicalRecord{
			Time: time.Duration(i) * time.Millisecond,
			Item: items[i%len(items)], Size: 4096, Op: trace.OpRead,
		})
	}
	stub := func(rec trace.LogicalRecord, orig time.Duration) (time.Duration, error) {
		return 3 * time.Millisecond, nil
	}
	demux := func(recs []trace.LogicalRecord) float64 {
		return testing.AllocsPerRun(10, func() {
			var clk simclock.Clock
			var evq simclock.EventQueue
			if err := newClosedLoop(trace.NewSliceSource(recs), len(items), &clk, &evq, stub).run(); err != nil {
				t.Fatal(err)
			}
		})
	}
	cat := trace.NewCatalog()
	for range items {
		cat.Add(fmt.Sprintf("item%d", cat.Len()), 64<<20)
	}
	// feed replays the same records as per-item streams.
	feed := func(recs []trace.LogicalRecord) float64 {
		streams := make([]trace.ItemStream, len(items))
		for i, item := range items {
			streams[i] = trace.ItemStream{Item: item, Seq: func(yield func(trace.LogicalRecord) bool) {
				for _, rec := range recs {
					if rec.Item == item && !yield(rec) {
						return
					}
				}
			}}
		}
		return testing.AllocsPerRun(10, func() {
			var clk simclock.Clock
			var evq simclock.EventQueue
			il, err := newItemLoop(streams, time.Hour, cat, issuer{clk: &clk, evq: &evq, submit: stub})
			if err != nil {
				t.Fatal(err)
			}
			err = il.run()
			il.close()
			if err != nil {
				t.Fatal(err)
			}
		})
	}
	for _, engine := range []struct {
		name string
		run  func([]trace.LogicalRecord) float64
	}{{"demux", demux}, {"item feed", feed}} {
		half := engine.run(recs[:n])
		full := engine.run(recs)
		if marginal := (full - half) / n; marginal > 0.01 {
			t.Errorf("%s: closed-loop marginal allocations %.4f/record (half=%.1f full=%.1f), want ~0",
				engine.name, marginal, half, full)
		}
	}
}
