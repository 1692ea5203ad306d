package replay

import (
	"reflect"
	"testing"
	"time"

	"esm/internal/core"
	"esm/internal/policy"
	"esm/internal/storage"
	"esm/internal/trace"
)

// steadyTrace builds a trace with one item per enclosure, each receiving
// one read every `gap` for `dur`.
func steadyTrace(n int, gap, dur time.Duration) (*trace.Catalog, []trace.LogicalRecord, []int) {
	cat := trace.NewCatalog()
	var recs []trace.LogicalRecord
	placement := make([]int, n)
	for e := 0; e < n; e++ {
		id := cat.Add("item"+string(rune('A'+e)), 1<<30)
		placement[e] = e
		for tm := time.Duration(e) * time.Second; tm < dur; tm += gap {
			recs = append(recs, trace.LogicalRecord{Time: tm, Item: id, Offset: int64(tm), Size: 8 << 10, Op: trace.OpRead})
		}
	}
	trace.SortLogical(recs)
	return cat, recs, placement
}

func TestExecuteNoPowerSaving(t *testing.T) {
	cat, recs, placement := steadyTrace(2, 10*time.Second, 10*time.Minute)
	res, err := Execute(Run{
		Catalog:   cat,
		Records:   recs,
		Placement: placement,
		Storage:   storage.DefaultConfig(2),
		Policy:    policy.NoPowerSaving{},
		Duration:  10 * time.Minute,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.PolicyName != "none" {
		t.Fatalf("policy name %q", res.PolicyName)
	}
	if res.Span != 10*time.Minute {
		t.Fatalf("span %v", res.Span)
	}
	if res.Resp.Count() != int64(len(recs)) {
		t.Fatalf("responses %d, records %d", res.Resp.Count(), len(recs))
	}
	cfg := storage.DefaultConfig(2)
	// Everything idle-or-active: average enclosure power near 2×IdleW.
	if res.AvgEnclosureW < 2*cfg.Power.IdleW*0.98 {
		t.Fatalf("avg enclosure power %v too low for always-on", res.AvgEnclosureW)
	}
	if res.SpinUps != 0 || res.Determinations != 0 {
		t.Fatalf("unexpected spinups/determinations %d/%d", res.SpinUps, res.Determinations)
	}
	if res.Monitor == nil || res.Monitor.Enclosures() != 2 {
		t.Fatal("storage monitor missing")
	}
}

func TestExecuteTimeoutSavesOnIdleWorkload(t *testing.T) {
	// One busy enclosure, one idle: FixedTimeout should cut the idle one.
	cat := trace.NewCatalog()
	busy := cat.Add("busy", 1<<30)
	cat.Add("idle", 1<<30)
	var recs []trace.LogicalRecord
	for tm := time.Duration(0); tm < 20*time.Minute; tm += 5 * time.Second {
		recs = append(recs, trace.LogicalRecord{Time: tm, Item: busy, Size: 8 << 10, Op: trace.OpRead})
	}
	run := Run{
		Catalog:   cat,
		Records:   recs,
		Placement: []int{0, 1},
		Storage:   storage.DefaultConfig(2),
		Duration:  20 * time.Minute,
	}
	run.Policy = policy.NoPowerSaving{}
	base, err := Execute(run)
	if err != nil {
		t.Fatal(err)
	}
	run.Policy = policy.FixedTimeout{}
	saved, err := Execute(run)
	if err != nil {
		t.Fatal(err)
	}
	if saved.AvgEnclosureW >= base.AvgEnclosureW {
		t.Fatalf("timeout policy saved nothing: %v vs %v", saved.AvgEnclosureW, base.AvgEnclosureW)
	}
	if saved.SpinUps != 0 {
		t.Fatalf("idle enclosure should never spin back up, got %d", saved.SpinUps)
	}
}

func TestExecuteWindows(t *testing.T) {
	cat, recs, placement := steadyTrace(1, time.Second, 4*time.Minute)
	res, err := Execute(Run{
		Catalog:   cat,
		Records:   recs,
		Placement: placement,
		Storage:   storage.DefaultConfig(1),
		Policy:    policy.NoPowerSaving{},
		Duration:  4 * time.Minute,
		Windows: []Window{
			{Name: "W1", Start: 0, End: time.Minute},
			{Name: "W2", Start: time.Minute, End: 2 * time.Minute},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Windows) != 2 {
		t.Fatalf("windows %d", len(res.Windows))
	}
	if res.Windows[0].Reads != 60 || res.Windows[1].Reads != 60 {
		t.Fatalf("window read counts %d/%d", res.Windows[0].Reads, res.Windows[1].Reads)
	}
	if res.Windows[0].ReadSum <= 0 {
		t.Fatal("window read sum empty")
	}
}

func TestExecuteRejectsBadInput(t *testing.T) {
	cat := trace.NewCatalog()
	cat.Add("x", 1)
	if _, err := Execute(Run{}); err == nil {
		t.Fatal("empty run accepted")
	}
	if _, err := Execute(Run{Catalog: cat, Policy: policy.NoPowerSaving{}, Placement: nil, Storage: storage.DefaultConfig(1)}); err == nil {
		t.Fatal("missing placement accepted")
	}
	recs := []trace.LogicalRecord{{Time: 2}, {Time: 1}}
	if _, err := Execute(Run{
		Catalog: cat, Policy: policy.NoPowerSaving{}, Placement: []int{0},
		Storage: storage.DefaultConfig(1), Records: recs,
	}); err == nil {
		t.Fatal("unsorted records accepted")
	}
}

func TestExecuteWithESM(t *testing.T) {
	// End-to-end smoke: the proposed policy runs inside the replay engine
	// and produces sane metrics.
	cat := trace.NewCatalog()
	busy := cat.Add("busy", 1<<30)
	burst := cat.Add("burst", 32<<20)
	var recs []trace.LogicalRecord
	dur := 30 * time.Minute
	for tm := time.Duration(0); tm < dur; tm += 2 * time.Second {
		recs = append(recs, trace.LogicalRecord{Time: tm, Item: busy, Offset: int64(tm), Size: 8 << 10, Op: trace.OpRead})
	}
	for start := time.Duration(0); start < dur; start += 5 * time.Minute {
		for j := 0; j < 5; j++ {
			recs = append(recs, trace.LogicalRecord{Time: start + time.Duration(j)*300*time.Millisecond, Item: burst, Size: 8 << 10, Op: trace.OpRead})
		}
	}
	trace.SortLogical(recs)
	esm, err := core.NewESM(core.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	res, err := Execute(Run{
		Catalog:   cat,
		Records:   recs,
		Placement: []int{0, 1},
		Storage:   storage.DefaultConfig(2),
		Policy:    esm,
		Duration:  dur,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Determinations < 1 {
		t.Fatal("ESM never planned")
	}
	if res.AvgEnclosureW <= 0 || res.EnergyJ <= 0 {
		t.Fatal("power metrics empty")
	}
}

func TestClosedLoopShiftsInsteadOfPiling(t *testing.T) {
	// One item issues a burst of 50 I/Os spaced 10ms onto an enclosure
	// that is spun down; open-loop charges the spin-up wait to every I/O,
	// closed-loop only to the first.
	cat := trace.NewCatalog()
	id := cat.Add("x", 1<<30)
	warm := cat.Add("w", 1<<30)
	var recs []trace.LogicalRecord
	// Touch once at t=0 so the enclosure spins down before the burst.
	recs = append(recs, trace.LogicalRecord{Time: 0, Item: id, Size: 8 << 10, Op: trace.OpRead})
	recs = append(recs, trace.LogicalRecord{Time: 0, Item: warm, Size: 8 << 10, Op: trace.OpRead})
	for j := 0; j < 50; j++ {
		recs = append(recs, trace.LogicalRecord{
			Time: 5*time.Minute + time.Duration(j)*10*time.Millisecond,
			Item: id, Offset: int64(j) << 13, Size: 8 << 10, Op: trace.OpRead,
		})
	}
	trace.SortLogical(recs)
	run := Run{
		Catalog:   cat,
		Records:   recs,
		Placement: []int{0, 1},
		Storage:   storage.DefaultConfig(2),
		Duration:  10 * time.Minute,
	}
	run.Policy = policy.FixedTimeout{}
	open, err := Execute(run)
	if err != nil {
		t.Fatal(err)
	}
	run.Policy = policy.FixedTimeout{}
	run.ClosedLoop = true
	closed, err := Execute(run)
	if err != nil {
		t.Fatal(err)
	}
	if closed.Resp.Mean() >= open.Resp.Mean()/4 {
		t.Fatalf("closed-loop mean %v not far below open-loop %v", closed.Resp.Mean(), open.Resp.Mean())
	}
	if closed.Resp.Count() != open.Resp.Count() {
		t.Fatal("record counts differ between modes")
	}
	// Both see exactly one spin-up for the burst.
	if closed.SpinUps != open.SpinUps {
		t.Fatalf("spinups differ: %d vs %d", closed.SpinUps, open.SpinUps)
	}
}

func TestClosedLoopPreservesPerItemOrder(t *testing.T) {
	cat := trace.NewCatalog()
	a := cat.Add("a", 1<<30)
	b := cat.Add("b", 1<<30)
	var recs []trace.LogicalRecord
	for j := 0; j < 100; j++ {
		recs = append(recs, trace.LogicalRecord{Time: time.Duration(j) * 7 * time.Millisecond, Item: a, Offset: int64(j), Size: 4096, Op: trace.OpRead})
		recs = append(recs, trace.LogicalRecord{Time: time.Duration(j) * 11 * time.Millisecond, Item: b, Offset: int64(j), Size: 4096, Op: trace.OpWrite})
	}
	trace.SortLogical(recs)
	res, err := Execute(Run{
		Catalog:    cat,
		Records:    recs,
		Placement:  []int{0, 0},
		Storage:    storage.DefaultConfig(1),
		Policy:     policy.NoPowerSaving{},
		Duration:   time.Minute,
		ClosedLoop: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Resp.Count() != 200 {
		t.Fatalf("submitted %d records, want 200", res.Resp.Count())
	}
}

// TestShardedFallbacks pins the deprecated Run.Shards: whatever shard
// count a caller still asks for, the run replays on the serial engine
// with the serial result, open and closed loop alike.
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
	// Closed loop with shards requested still succeeds.
	r := base
	r.Shards = 4
	r.ClosedLoop = true
	if _, err := Execute(r); err != nil {
		t.Fatalf("closed-loop with shards: %v", err)
	}
}
