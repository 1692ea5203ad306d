package replay

import (
	"errors"
	"testing"
	"time"

	"esm/internal/core"
	"esm/internal/policy"
	"esm/internal/storage"
	"esm/internal/trace"
)

// TestOutOfOrderRecordIsTyped checks that Execute reports an unsorted
// trace as one *trace.OrderError naming the record and both times, on
// the open and the closed loop alike.
func TestOutOfOrderRecordIsTyped(t *testing.T) {
	cat := trace.NewCatalog()
	it := cat.Add("x", 1<<20)
	recs := []trace.LogicalRecord{
		{Time: 0, Item: it, Size: 4096},
		{Time: 2 * time.Second, Item: it, Size: 4096},
		{Time: time.Second, Item: it, Size: 4096},
	}
	for _, closed := range []bool{false, true} {
		_, err := Execute(Run{
			Catalog: cat, Policy: policy.NoPowerSaving{}, Placement: []int{0},
			Storage: storage.DefaultConfig(1), Source: trace.NewSliceSource(recs),
			Duration: time.Minute, ClosedLoop: closed,
		})
		var oe *trace.OrderError
		if !errors.As(err, &oe) {
			t.Fatalf("closed=%v: got %v (%T), want *trace.OrderError", closed, err, err)
		}
		if oe.Record != 2 || oe.Prev != 2*time.Second || oe.Got != time.Second {
			t.Fatalf("closed=%v: OrderError %+v, want record 2, 2s then 1s", closed, oe)
		}
	}
}

// TestSessionLifecycle drives a session by hand: Feed and RunUntil
// advance it, RunUntil fences earlier records, Finish is idempotent,
// and nothing is accepted after it.
func TestSessionLifecycle(t *testing.T) {
	cat, recs, placement := steadyTrace(2, 10*time.Second, 10*time.Minute)
	esm, err := core.NewESM(core.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSession(Run{Catalog: cat, Placement: placement, Storage: storage.DefaultConfig(2), Policy: esm})
	if err != nil {
		t.Fatal(err)
	}
	half := len(recs) / 2
	for _, rec := range recs[:half] {
		if err := s.Feed(rec); err != nil {
			t.Fatal(err)
		}
	}
	fence := recs[half].Time + time.Second
	if err := s.RunUntil(fence); err != nil {
		t.Fatal(err)
	}
	if s.Now() != fence || s.Records() != int64(half) {
		t.Fatalf("now %v records %d, want %v and %d", s.Now(), s.Records(), fence, half)
	}
	var oe *trace.OrderError
	if err := s.Feed(recs[half]); !errors.As(err, &oe) || oe.Prev != fence {
		t.Fatalf("record before the RunUntil fence: %v", err)
	}
	// An open-ended session samples for as long as the clock runs.
	res, err := s.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if res.Span != fence || res.PowerBucket <= 0 || len(res.PowerSeries) != int(fence/res.PowerBucket) {
		t.Fatalf("span %v, %d power samples of %v", res.Span, len(res.PowerSeries), res.PowerBucket)
	}
	again, err := s.Finish()
	if err != nil || again != res {
		t.Fatalf("Finish not idempotent: %v, %p vs %p", err, again, res)
	}
	if err := s.Feed(recs[len(recs)-1]); err == nil {
		t.Fatal("feed after finish accepted")
	}
	if err := s.SwapPolicy(policy.NoPowerSaving{}); err == nil {
		t.Fatal("swap after finish accepted")
	}
}
