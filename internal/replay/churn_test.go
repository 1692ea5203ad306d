package replay

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"esm/internal/policy"
	"esm/internal/simclock"
	"esm/internal/storage"
	"esm/internal/trace"
)

// churnSource generates a high-churn trace lazily: recsPerItem
// consecutive records per item, items retiring forever afterwards, one
// record per microsecond. It never materializes the trace, so the test
// measures the engine's memory profile, not the fixture's.
type churnSource struct {
	n, total    int64
	recsPerItem int64
}

func (s *churnSource) Next() (trace.LogicalRecord, bool) {
	if s.n >= s.total {
		return trace.LogicalRecord{}, false
	}
	rec := trace.LogicalRecord{
		Time: time.Duration(s.n) * time.Microsecond,
		Item: trace.ItemID(s.n / s.recsPerItem),
		Size: 4096,
		Op:   trace.OpRead,
	}
	s.n++
	return rec, true
}

func (s *churnSource) Err() error { return nil }

// batchesHeld counts the batches a closed loop holds: lent to cursors
// (with the batches chained from them) plus waiting in the pool. A
// batch is never dropped, so after a run the count is the peak number
// of batches lent out at once.
func batchesHeld(il *itemLoop) int {
	held := len(il.free)
	for i := range il.cursors {
		for b := il.cursors[i].b; b != nil; b = b.chain {
			held++
		}
	}
	return held
}

// TestClosedLoopChurnBoundedCursors is the flat-memory gate for volume
// churn: 1M records over 62.5k items that each recur 16 times and then
// never again. Batches are lent only to items with queued records, so
// the batches held must stay bounded by the churn window (the items the
// demux reads ahead over), not by the item population. Without the
// pool every item ever seen would keep its batch: 62.5k of them.
func TestClosedLoopChurnBoundedCursors(t *testing.T) {
	const total = 1_000_000
	const perItem = 16
	src := &churnSource{total: total, recsPerItem: perItem}
	submit := func(rec trace.LogicalRecord, orig time.Duration) (time.Duration, error) {
		return time.Microsecond, nil
	}
	var clk simclock.Clock
	var evq simclock.EventQueue
	il, err := newItemLoop(src, catalogOf(total/perItem), &clk, &evq, submit)
	if err != nil {
		t.Fatal(err)
	}
	if err := il.run(); err != nil {
		t.Fatal(err)
	}
	// Each record completes just as the next one arrives, so the
	// read-ahead never spans more than the current item and the next;
	// the bound leaves room for that horizon, not for the population.
	const bound = perItem
	if held := batchesHeld(il); held == 0 || held > bound {
		t.Fatalf("%d batches held after the run, want 1..%d (population %d)", held, bound, total/perItem)
	}
}

// TestClosedLoopEvictionPreservesStall pins the timeline half of the
// batch lending: an item whose last I/O left a far-future completion
// fence must issue its next record at that fence, although it drained,
// left the heap, handed its batch back to the pool and sat idle while
// tens of thousands of other items borrowed batches in between.
func TestClosedLoopEvictionPreservesStall(t *testing.T) {
	const fillers = 24_576
	stall := 10 * time.Second
	recs := make([]trace.LogicalRecord, 0, fillers+2)
	recs = append(recs, trace.LogicalRecord{Time: 0, Item: 0, Size: 4096, Op: trace.OpRead})
	for i := 0; i < fillers; i++ {
		recs = append(recs, trace.LogicalRecord{
			Time: time.Duration(i+1) * time.Microsecond,
			Item: trace.ItemID(i + 1), Size: 4096, Op: trace.OpRead,
		})
	}
	last := trace.LogicalRecord{
		Time: time.Duration(fillers+10) * time.Microsecond,
		Item: 0, Size: 4096, Op: trace.OpRead,
	}
	recs = append(recs, last)

	var issuedAt time.Duration
	submit := func(rec trace.LogicalRecord, orig time.Duration) (time.Duration, error) {
		if rec.Item == 0 && orig == last.Time {
			issuedAt = rec.Time
		}
		if rec.Item == 0 && orig == 0 {
			return stall, nil
		}
		return 0, nil
	}
	if err := runDemux(recs, fillers+1, submit); err != nil {
		t.Fatal(err)
	}
	if issuedAt != stall {
		t.Fatalf("item 0's record after the gap issued at %v, want the completion fence %v", issuedAt, stall)
	}
}

// TestClosedLoopRejectsItemOutsideCatalog feeds a closed-loop run a
// record whose item lies past the catalog and one with a negative item.
// Cursors are indexed by ItemID, so the demux must reject each with an
// error naming the record and the item, never panic on the index.
func TestClosedLoopRejectsItemOutsideCatalog(t *testing.T) {
	cat, recs, placement := steadyTrace(2, 10*time.Second, time.Minute)
	for _, bad := range []trace.ItemID{trace.ItemID(cat.Len()), -1} {
		recs := append(recs[:3:3], trace.LogicalRecord{Time: recs[2].Time, Item: bad, Size: 4096, Op: trace.OpRead})
		_, err := Execute(Run{
			Catalog:    cat,
			Source:     trace.NewSliceSource(recs),
			Placement:  placement,
			Storage:    storage.DefaultConfig(2),
			Policy:     policy.NoPowerSaving{},
			Duration:   time.Minute,
			ClosedLoop: true,
		})
		if err == nil {
			t.Fatalf("item %d: closed-loop run accepted a record outside the catalog", bad)
		}
		for _, want := range []string{"record 3", fmt.Sprintf("item %d", bad)} {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("item %d: error %q does not name %q", bad, err, want)
			}
		}
	}
}
