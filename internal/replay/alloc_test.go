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

// TestClosedLoopSteadyStateAllocs pins the closed-loop engine's marginal
// allocation cost per record at zero: the cursor ring buffers and the
// demux heap must reach a steady footprint, after which doubling the
// record count adds no allocations. (Fixed setup costs — the cursor
// map, the source adapter, initial ring growth — cancel in the margin.)
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
	run := func(recs []trace.LogicalRecord) float64 {
		return testing.AllocsPerRun(10, func() {
			var clk simclock.Clock
			var evq simclock.EventQueue
			if err := newClosedLoop(trace.NewSliceSource(recs), &clk, &evq, stub).run(); err != nil {
				t.Fatal(err)
			}
		})
	}
	half := run(recs[:n])
	full := run(recs)
	marginal := (full - half) / n
	if marginal > 0.01 {
		t.Fatalf("closed-loop marginal allocations %.4f/record (half=%.1f full=%.1f), want ~0",
			marginal, half, full)
	}
}
