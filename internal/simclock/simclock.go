// Package simclock provides the virtual-time core used by the storage
// simulator and the trace replay engine.
//
// All simulated components share a single Clock. Time is expressed as a
// time.Duration offset from the start of the simulation; nothing in the
// simulator ever sleeps on the wall clock, so a six-hour workload replays
// as fast as events can be processed.
package simclock

import (
	"container/heap"
	"fmt"
	"time"
)

// Clock is a monotonically advancing virtual clock.
//
// The zero value is ready to use and starts at time zero.
type Clock struct {
	now time.Duration
}

// Now returns the current virtual time.
func (c *Clock) Now() time.Duration { return c.now }

// Advance moves the clock forward to t. Advance panics if t is earlier than
// the current time: simulated time never flows backwards, and a violation
// indicates a scheduling bug rather than a recoverable condition.
func (c *Clock) Advance(t time.Duration) {
	if t < c.now {
		panic(fmt.Sprintf("simclock: time moved backwards: %v -> %v", c.now, t))
	}
	c.now = t
}

// Event is a scheduled callback in an EventQueue.
type Event struct {
	// At is the virtual time the event fires.
	At time.Duration
	// Fire is invoked when the event is dispatched. It must not be nil.
	Fire func(now time.Duration)

	seq   uint64 // tie-break: FIFO among equal timestamps
	index int    // heap index; -1 once popped or cancelled
}

// EventQueue is a time-ordered queue of events. Events with equal
// timestamps are dispatched in insertion order, which keeps the simulation
// deterministic.
//
// The zero value is ready to use.
type EventQueue struct {
	h      eventHeap
	nextSq uint64
	// free holds dispatched Event structs for reuse, so steady-state
	// scheduling (power samples, migration chunks, policy wakes) does not
	// allocate. Its length is bounded by the peak number of pending
	// events, not by the number of events ever scheduled.
	free []*Event
}

// Schedule enqueues fire to run at time at and returns the event handle,
// which may be passed to Cancel. The handle is valid until the event
// fires: once Fire has been invoked the queue may reuse the Event for a
// later Schedule, so holders must drop (or nil out) their handle from
// inside Fire — as every repo policy does — rather than Cancel it later.
func (q *EventQueue) Schedule(at time.Duration, fire func(now time.Duration)) *Event {
	var e *Event
	if n := len(q.free); n > 0 {
		e = q.free[n-1]
		q.free[n-1] = nil
		q.free = q.free[:n-1]
		e.At, e.Fire = at, fire
		e.seq = q.nextSq
	} else {
		e = &Event{At: at, Fire: fire, seq: q.nextSq}
	}
	q.nextSq++
	heap.Push(&q.h, e)
	return e
}

// Cancel removes e from the queue if it is still pending. Cancelling an
// already-dispatched or already-cancelled event is a no-op.
func (q *EventQueue) Cancel(e *Event) {
	if e == nil || e.index < 0 {
		return
	}
	heap.Remove(&q.h, e.index)
	e.index = -1
}

// Len returns the number of pending events.
func (q *EventQueue) Len() int { return len(q.h) }

// PeekTime returns the timestamp of the earliest pending event. The second
// return value is false when the queue is empty.
func (q *EventQueue) PeekTime() (time.Duration, bool) {
	if len(q.h) == 0 {
		return 0, false
	}
	return q.h[0].At, true
}

// Pop removes and returns the earliest pending event, or nil when empty.
// The caller is responsible for advancing the clock and invoking Fire.
func (q *EventQueue) Pop() *Event {
	if len(q.h) == 0 {
		return nil
	}
	e := heap.Pop(&q.h).(*Event)
	e.index = -1
	return e
}

// RunUntil dispatches every event with At <= limit, advancing clk as it
// goes, and finally advances clk to limit. Events scheduled by fired events
// are dispatched too as long as they fall within the limit.
func (q *EventQueue) RunUntil(clk *Clock, limit time.Duration) {
	for {
		at, ok := q.PeekTime()
		if !ok || at > limit {
			break
		}
		e := q.Pop()
		// Events may have been scheduled "in the past" relative to other
		// pending events but never before the clock; Advance enforces that.
		clk.Advance(e.At)
		e.Fire(e.At)
		// Recycle the fired event into the free pool.
		e.Fire = nil
		q.free = append(q.free, e)
	}
	clk.Advance(limit)
}

type eventHeap []*Event

func (h eventHeap) Len() int { return len(h) }

func (h eventHeap) Less(i, j int) bool {
	if h[i].At != h[j].At {
		return h[i].At < h[j].At
	}
	return h[i].seq < h[j].seq
}

func (h eventHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index = i
	h[j].index = j
}

func (h *eventHeap) Push(x any) {
	e := x.(*Event)
	e.index = len(*h)
	*h = append(*h, e)
}

func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return e
}
