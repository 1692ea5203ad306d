package simclock

import (
	"math/rand"
	"testing"
	"testing/quick"
	"time"
)

func TestClockStartsAtZero(t *testing.T) {
	var c Clock
	if c.Now() != 0 {
		t.Fatalf("new clock at %v, want 0", c.Now())
	}
}

func TestClockAdvance(t *testing.T) {
	var c Clock
	c.Advance(5 * time.Second)
	if c.Now() != 5*time.Second {
		t.Fatalf("clock at %v, want 5s", c.Now())
	}
	c.Advance(5 * time.Second) // same time is allowed
	if c.Now() != 5*time.Second {
		t.Fatalf("clock at %v after no-op advance", c.Now())
	}
}

func TestClockPanicsOnBackwards(t *testing.T) {
	var c Clock
	c.Advance(10 * time.Second)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on backwards advance")
		}
	}()
	c.Advance(9 * time.Second)
}

func TestEventQueueOrdering(t *testing.T) {
	var q EventQueue
	var got []int
	q.Schedule(3*time.Second, func(time.Duration) { got = append(got, 3) })
	q.Schedule(1*time.Second, func(time.Duration) { got = append(got, 1) })
	q.Schedule(2*time.Second, func(time.Duration) { got = append(got, 2) })
	var c Clock
	q.RunUntil(&c, 10*time.Second)
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("events fired in order %v", got)
	}
	if c.Now() != 10*time.Second {
		t.Fatalf("clock at %v, want 10s", c.Now())
	}
}

func TestEventQueueFIFOAtEqualTimes(t *testing.T) {
	var q EventQueue
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		q.Schedule(time.Second, func(time.Duration) { got = append(got, i) })
	}
	var c Clock
	q.RunUntil(&c, time.Second)
	for i, v := range got {
		if v != i {
			t.Fatalf("equal-time events out of insertion order: %v", got)
		}
	}
}

func TestEventQueueCancel(t *testing.T) {
	var q EventQueue
	fired := false
	e := q.Schedule(time.Second, func(time.Duration) { fired = true })
	q.Cancel(e)
	if e.index >= 0 {
		t.Fatal("event not marked cancelled")
	}
	var c Clock
	q.RunUntil(&c, 2*time.Second)
	if fired {
		t.Fatal("cancelled event fired")
	}
	q.Cancel(e) // double cancel is a no-op
	q.Cancel(nil)
}

func TestEventQueueRunUntilLimit(t *testing.T) {
	var q EventQueue
	fired := 0
	q.Schedule(1*time.Second, func(time.Duration) { fired++ })
	q.Schedule(5*time.Second, func(time.Duration) { fired++ })
	var c Clock
	q.RunUntil(&c, 3*time.Second)
	if fired != 1 {
		t.Fatalf("fired %d events before limit, want 1", fired)
	}
	if q.Len() != 1 {
		t.Fatalf("queue holds %d events, want 1", q.Len())
	}
	at, ok := q.PeekTime()
	if !ok || at != 5*time.Second {
		t.Fatalf("peek = %v,%v", at, ok)
	}
}

func TestEventsCanScheduleEvents(t *testing.T) {
	var q EventQueue
	var got []time.Duration
	q.Schedule(time.Second, func(now time.Duration) {
		got = append(got, now)
		q.Schedule(now+time.Second, func(now time.Duration) {
			got = append(got, now)
		})
	})
	var c Clock
	q.RunUntil(&c, 5*time.Second)
	if len(got) != 2 || got[0] != time.Second || got[1] != 2*time.Second {
		t.Fatalf("chained events fired at %v", got)
	}
}

func TestEventQueuePopEmpty(t *testing.T) {
	var q EventQueue
	if q.Pop() != nil {
		t.Fatal("pop on empty queue should return nil")
	}
	if _, ok := q.PeekTime(); ok {
		t.Fatal("peek on empty queue should report !ok")
	}
}

// TestEventQueueRandomizedOrdering checks, with random schedules and
// cancellations, that dispatch order is always non-decreasing in time.
func TestEventQueueRandomizedOrdering(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var q EventQueue
		var c Clock
		var fireTimes []time.Duration
		var events []*Event
		n := 50 + rng.Intn(100)
		for i := 0; i < n; i++ {
			at := time.Duration(rng.Int63n(int64(time.Minute)))
			events = append(events, q.Schedule(at, func(now time.Duration) {
				fireTimes = append(fireTimes, now)
			}))
		}
		for _, e := range events {
			if rng.Float64() < 0.3 {
				q.Cancel(e)
			}
		}
		q.RunUntil(&c, time.Minute)
		for i := 1; i < len(fireTimes); i++ {
			if fireTimes[i] < fireTimes[i-1] {
				return false
			}
		}
		return q.Len() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestEventQueueRecyclesEvents verifies the free-pool actually bounds
// allocation: scheduling and dispatching in steady state must reuse
// Event structs instead of allocating one per Schedule.
func TestEventQueueRecyclesEvents(t *testing.T) {
	var q EventQueue
	var clk Clock
	// Prime: one event in flight, dispatched, released.
	fired := 0
	q.Schedule(time.Second, func(now time.Duration) { fired++ })
	q.RunUntil(&clk, time.Second)

	fire := func(now time.Duration) { fired++ } // hoisted: one closure for all runs
	allocs := testing.AllocsPerRun(1000, func() {
		at := clk.Now() + time.Millisecond
		q.Schedule(at, fire)
		q.RunUntil(&clk, at)
	})
	if allocs != 0 {
		t.Fatalf("steady-state Schedule+RunUntil allocates %.1f/op, want 0", allocs)
	}
	if fired < 1000 {
		t.Fatalf("fired %d events", fired)
	}
}

// TestEventQueueCancelAfterPooling: cancelling a pending event still
// works with the free pool in place, and the cancelled Event is not
// recycled (it was never dispatched).
func TestEventQueueCancelAfterPooling(t *testing.T) {
	var q EventQueue
	var clk Clock
	ran := false
	e := q.Schedule(time.Second, func(time.Duration) { ran = true })
	q.Cancel(e)
	q.RunUntil(&clk, 2*time.Second)
	if ran {
		t.Fatal("cancelled event fired")
	}
	if e.index >= 0 {
		t.Fatal("event not marked cancelled")
	}
}
