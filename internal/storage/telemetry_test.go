package storage

import (
	"testing"
	"time"

	"esm/internal/faults"
	"esm/internal/obs"
	"esm/internal/simclock"
	"esm/internal/trace"
)

// TestTelemetryOffSteadyStateAllocs is the off-path allocation gate of
// the decision log: with the decision log off, every storage decision
// site must allocate nothing for its record. Each case drives one site
// in steady state and allows only the allocations of the site's own
// work, named in its budget. Every case runs twice: with the zero
// Telemetry, and with a span tracer that has no sink, whose energy
// ledger and latency breakdown must fit the same budgets.
func TestTelemetryOffSteadyStateAllocs(t *testing.T) {
	const item, other = trace.ItemID(0), trace.ItemID(1)
	// traced selects the input of the current run: false for the zero
	// Telemetry, true for a sinkless span tracer.
	var traced bool
	// build returns an array over two 64 MiB items, one per enclosure,
	// with the current run's Telemetry.
	build := func(t *testing.T, fc *faults.Config) (*Array, *simclock.Clock, *simclock.EventQueue) {
		t.Helper()
		cat := trace.NewCatalog()
		cat.Add("item", 64<<20)
		cat.Add("other", 64<<20)
		clk, evq := &simclock.Clock{}, &simclock.EventQueue{}
		arr, err := New(DefaultConfig(2), clk, evq, cat)
		if err != nil {
			t.Fatal(err)
		}
		if traced {
			arr.SetTelemetry(obs.Telemetry{Tracer: obs.NewTracer(obs.TracerOptions{})})
		}
		for it, e := range []int{0, 1} {
			if err := arr.Place(trace.ItemID(it), e); err != nil {
				t.Fatal(err)
			}
		}
		if fc != nil {
			inj, err := faults.NewInjector(*fc)
			if err != nil {
				t.Fatal(err)
			}
			arr.SetFaultInjector(inj)
		}
		return arr, clk, evq
	}
	write := func(t *testing.T, arr *Array) {
		t.Helper()
		if _, err := arr.Submit(trace.LogicalRecord{Item: item, Size: 4096, Op: trace.OpWrite}); err != nil {
			t.Fatal(err)
		}
	}

	cases := []struct {
		name string
		// budget is the allocations per op of the site's own work.
		budget float64
		// setup returns the op; it runs once first to reach steady state.
		setup func(t *testing.T) func()
	}{
		{
			// An idle spin-down, then a write that spins the enclosure
			// back up: the off, spin-up and on transitions.
			name: "power transitions", budget: 0,
			setup: func(t *testing.T) func() {
				arr, clk, _ := build(t, nil)
				arr.SetSpinDownEnabled(0, true)
				return func() {
					clk.Advance(clk.Now() + time.Hour)
					n := arr.Meter().SpinUps()
					write(t, arr)
					if arr.Meter().SpinUps() != n+1 {
						t.Fatal("write did not spin the idle enclosure up")
					}
				}
			},
		},
		{
			// A write unpins the item's preloaded copy; the test re-pins
			// it directly, so the op holds no preload work of its own.
			name: "write unpins a preloaded item", budget: 0,
			setup: func(t *testing.T) func() {
				arr, clk, _ := build(t, nil)
				arr.SetPreload([]trace.ItemID{item})
				return func() {
					st := &arr.items[item]
					st.pinned, st.loadedAt = true, clk.Now()
					arr.preload.usedBytes += st.size
					write(t, arr)
					if arr.Preloaded(item) {
						t.Fatal("write left the preload copy pinned")
					}
				}
			},
		},
		{
			// Re-applying an unchanged selection: each setter builds its
			// per-item selection marks.
			name: "no-op SetWriteDelay and SetPreload", budget: 2,
			setup: func(t *testing.T) func() {
				arr, _, _ := build(t, nil)
				sel := []trace.ItemID{item}
				arr.SetWriteDelay(sel)
				arr.SetPreload(sel)
				return func() {
					arr.SetWriteDelay(sel)
					arr.SetPreload(sel)
				}
			},
		},
		{
			// A one-chunk migration there and back: each queues one
			// migration record in a fresh queue slot.
			name: "completed migrations", budget: 4,
			setup: func(t *testing.T) func() {
				arr, clk, evq := build(t, nil)
				return func() {
					for _, dst := range []int{0, 1} {
						if err := arr.MigrateItem(other, dst, nil); err != nil {
							t.Fatal(err)
						}
						evq.RunUntil(clk, clk.Now()+time.Hour)
					}
					if arr.ItemEnclosure(other) != 1 {
						t.Fatal("migrations did not complete")
					}
				}
			},
		},
		{
			// A migration to a full enclosure is skipped at start; its
			// record and queue slot are the site's work.
			name: "skipped migration", budget: 2,
			setup: func(t *testing.T) func() {
				arr, _, _ := build(t, nil)
				arr.enc[0].used = arr.cfg.EnclosureCapacity
				return func() {
					if err := arr.MigrateItem(other, 0, nil); err != nil {
						t.Fatal(err)
					}
					if arr.ItemEnclosure(other) != 1 {
						t.Fatal("migration to a full enclosure ran")
					}
				}
			},
		},
		{
			// Every physical I/O suffers an injected transient error.
			name: "fault", budget: 0,
			setup: func(t *testing.T) func() {
				arr, _, _ := build(t, &faults.Config{Seed: 1, TransientIOProb: 1})
				return func() {
					n := arr.FaultInjector().Counters().TransientIOErrors
					write(t, arr)
					if arr.FaultInjector().Counters().TransientIOErrors != n+1 {
						t.Fatal("write injected no fault")
					}
				}
			},
		},
	}
	for _, traced = range []bool{false, true} {
		for _, tc := range cases {
			name := tc.name
			if traced {
				name += " traced"
			}
			t.Run(name, func(t *testing.T) {
				op := tc.setup(t)
				op()
				allocs := testing.AllocsPerRun(100, op)
				if allocs > tc.budget {
					t.Fatalf("%.2f allocs/op, want at most %v (the site's own work)", allocs, tc.budget)
				}
			})
		}
	}
}
