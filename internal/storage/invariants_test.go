package storage

import (
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"esm/internal/simclock"
	"esm/internal/trace"
)

// TestArrayRandomOperationInvariants drives the array with random
// interleavings of every operation it supports and checks the global
// invariants after each step:
//
//   - per-enclosure used bytes never negative, never above capacity
//     (plus at most one in-flight migration reservation),
//   - every response non-negative,
//   - the meter's energy is monotonically non-decreasing,
//   - every item remains resolvable to a placed enclosure.
func TestArrayRandomOperationInvariants(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		cat := trace.NewCatalog()
		n := 3 + rng.Intn(3)
		nItems := 4 + rng.Intn(8)
		ids := make([]trace.ItemID, nItems)
		for i := range ids {
			ids[i] = cat.Add("it"+string(rune('A'+i)), int64(rng.Intn(1<<28)+1<<20))
		}
		clk := &simclock.Clock{}
		evq := &simclock.EventQueue{}
		cfg := DefaultConfig(n)
		arr, err := New(cfg, clk, evq, cat)
		if err != nil {
			return false
		}
		for _, id := range ids {
			if err := arr.Place(id, rng.Intn(n)); err != nil {
				return false
			}
		}

		var lastEnergy float64
		now := time.Duration(0)
		check := func() bool {
			for e := 0; e < n; e++ {
				used := arr.Used(e)
				if used < 0 {
					return false
				}
				// One in-flight migration may hold a reservation on top of
				// the resident bytes.
				if used > cfg.EnclosureCapacity+int64(1<<28) {
					return false
				}
			}
			arr.Finish()
			if e := arr.Meter().EnclosureEnergyJ(); e < lastEnergy {
				return false
			} else {
				lastEnergy = e
			}
			return true
		}

		for step := 0; step < 300; step++ {
			now += time.Duration(rng.Int63n(int64(20 * time.Second)))
			evq.RunUntil(clk, now)
			id := ids[rng.Intn(nItems)]
			switch rng.Intn(10) {
			case 0:
				arr.SetSpinDownEnabled(rng.Intn(n), rng.Intn(2) == 0)
			case 1:
				arr.MigrateItem(id, rng.Intn(n), nil)
			case 2:
				var sel []trace.ItemID
				for _, x := range ids {
					if rng.Intn(2) == 0 {
						sel = append(sel, x)
					}
				}
				arr.SetWriteDelay(sel)
			case 3:
				var sel []trace.ItemID
				for _, x := range ids {
					if rng.Intn(3) == 0 {
						sel = append(sel, x)
					}
				}
				arr.SetPreload(sel)
			case 4:
				arr.FlushAll()
			case 5:
				arr.DropQueuedMigrations()
			default:
				size := int32(rng.Intn(1<<17) + 512)
				max := arr.ItemSize(id) - int64(size)
				if max <= 0 {
					continue
				}
				rec := trace.LogicalRecord{
					Time:   now,
					Item:   id,
					Offset: rng.Int63n(max),
					Size:   size,
					Op:     trace.Op(rng.Intn(2)),
				}
				if out, err := arr.Submit(rec); err != nil || out.Response < 0 {
					return false
				}
			}
			if !check() {
				return false
			}
		}
		// Drain outstanding migrations and re-check.
		evq.RunUntil(clk, now+2*time.Hour)
		if !check() {
			return false
		}
		for _, id := range ids {
			if e := arr.ItemEnclosure(id); e < 0 || e >= n {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// TestEnclosureEnergyConservation: the accumulator's total integrated
// time equals the elapsed virtual time, whatever the op sequence.
func TestEnclosureEnergyConservation(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		cfg := DefaultConfig(1)
		e := newEnclosure(0, &cfg)
		now := time.Duration(0)
		for i := 0; i < 200; i++ {
			now += time.Duration(rng.Int63n(int64(30 * time.Second)))
			switch rng.Intn(3) {
			case 0:
				e.setSpinDown(now, rng.Intn(2) == 0)
			case 1:
				e.arrival(now, rng.Int63n(1<<35), int32(rng.Intn(1<<17)+512), rng.Intn(2) == 0, kindApp, new(arrivalInfo))
			default:
				e.sync(now)
			}
		}
		e.sync(now + time.Hour)
		total := e.acc.Duration()
		elapsed := now + time.Hour
		// Spin-up residency is integrated eagerly and can run slightly
		// past the last sync point; allow that overshoot.
		return total >= elapsed && total <= elapsed+2*cfg.Power.SpinUpTime
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
