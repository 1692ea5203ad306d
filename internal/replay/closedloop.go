// Closed-loop replay: per-data-item streams with queue depth one,
// demultiplexed incrementally from a streaming source.
//
// The demux state is bounded: cursors for items that stop recurring
// (volume churn) are evicted by a periodic sweep instead of pinning
// their ring buffers for the rest of the replay. An evicted item's
// timeline state survives as a two-field parked entry only while it can
// still affect a future record; once the stream's time high-water
// passes it, the entry is dropped entirely. Live memory is therefore
// O(active items + recently touched items), not O(items ever seen).

package replay

import (
	"fmt"
	"time"

	"esm/internal/simclock"
	"esm/internal/trace"
)

// itemCursor walks one data item's records through the shifted timeline.
type itemCursor struct {
	item trace.ItemID
	// buf is a power-of-two ring buffer holding the item's demuxed,
	// not-yet-issued records in time order. Only records the demuxer has
	// had to read ahead of the current issue point are buffered, so live
	// memory stays O(items) plus the read-ahead horizon, not O(records).
	// The ring is kept across activations: once it has grown to the
	// item's read-ahead peak, the steady-state demux-issue cycle
	// allocates nothing.
	buf  []trace.LogicalRecord
	head int
	n    int
	// delay is how far the item's timeline has been pushed back by
	// stalls; notBefore is the completion time of the item's last I/O.
	delay     time.Duration
	notBefore time.Duration
	// eff is the effective issue time of the next record.
	eff   time.Duration
	index int // heap index; -1 while the cursor has no queued records
	// touch is the demux record counter at the cursor's last activity;
	// the sweep only evicts cursors that sat drained through a whole
	// sweep window, so steady-state items are never churned through the
	// pool.
	touch int64
}

// push appends rec to the cursor's ring, growing it in powers of two.
func (c *itemCursor) push(rec trace.LogicalRecord) {
	if c.n == len(c.buf) {
		size := len(c.buf) * 2
		if size == 0 {
			size = 8
		}
		grown := make([]trace.LogicalRecord, size)
		for i := 0; i < c.n; i++ {
			grown[i] = c.buf[(c.head+i)&(len(c.buf)-1)]
		}
		c.buf, c.head = grown, 0
	}
	c.buf[(c.head+c.n)&(len(c.buf)-1)] = rec
	c.n++
}

// front returns the oldest queued record; the cursor must be non-empty.
func (c *itemCursor) front() trace.LogicalRecord { return c.buf[c.head] }

// pop discards the oldest queued record.
func (c *itemCursor) pop() {
	c.buf[c.head] = trace.LogicalRecord{}
	c.head = (c.head + 1) & (len(c.buf) - 1)
	c.n--
}

// cursorHeap is a binary min-heap of cursors by (eff, item). The item
// tie-break makes simultaneous activations issue in a fixed order, so
// replays are reproducible run to run; and because it is a total order
// over at most one cursor per item, every correct heap issues the same
// sequence. Each cursor's index tracks its slot (-1 when not queued).
type cursorHeap []*itemCursor

func cursorLess(a, b *itemCursor) bool {
	if a.eff != b.eff {
		return a.eff < b.eff
	}
	return a.item < b.item
}

// push queues c.
func (h *cursorHeap) push(c *itemCursor) {
	*h = append(*h, c)
	q := *h
	i := len(q) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !cursorLess(c, q[p]) {
			break
		}
		q[i] = q[p]
		q[i].index = i
		i = p
	}
	q[i] = c
	c.index = i
}

// fixRoot restores the heap after the root's key changed: the root
// can only sift down.
func (h cursorHeap) fixRoot() {
	n := len(h)
	c := h[0]
	i := 0
	for {
		j := 2*i + 1
		if j >= n {
			break
		}
		if r := j + 1; r < n && cursorLess(h[r], h[j]) {
			j = r
		}
		if !cursorLess(h[j], c) {
			break
		}
		h[i] = h[j]
		h[i].index = i
		i = j
	}
	h[i] = c
	c.index = i
}

// popRoot dequeues the root cursor.
func (h *cursorHeap) popRoot() {
	q := *h
	n := len(q) - 1
	q[0].index = -1
	q[0] = q[n]
	q[n] = nil
	*h = q[:n]
	if n > 0 {
		h.fixRoot()
	}
}

// parkedState is the part of an evicted cursor that can still change a
// future record's issue time: the accumulated timeline shift and the
// completion fence of the item's last I/O.
type parkedState struct {
	delay     time.Duration
	notBefore time.Duration
}

// sweepEvery is how many demuxed records pass between eviction sweeps.
// A sweep walks the whole cursor map, so the window amortizes its cost
// to O(live/sweepEvery) per record while bounding how long a churned
// item's ring buffer can linger.
const sweepEvery = 8192

// cursorPoolMax bounds the free list of evicted cursor structs; beyond
// it, evicted cursors are left to the collector.
const cursorPoolMax = 256

// closedLoop is the demux state of one closed-loop replay. It exists as
// a struct (rather than closure locals) so tests can watch the memory
// profile: peakCursors/peakParked record the high-water of the two maps
// as observed at sweep boundaries.
type closedLoop struct {
	src    trace.Source
	clk    *simclock.Clock
	evq    *simclock.EventQueue
	submit func(rec trace.LogicalRecord, origTime time.Duration) (time.Duration, error)

	cursors map[trace.ItemID]*itemCursor
	parked  map[trace.ItemID]parkedState
	pool    []*itemCursor
	h       cursorHeap

	pending     trace.LogicalRecord
	havePending bool
	eof         bool
	prev        time.Duration
	n           int64
	lastSweep   int64

	peakCursors int
	peakParked  int
}

func newClosedLoop(src trace.Source, clk *simclock.Clock, evq *simclock.EventQueue, submit func(rec trace.LogicalRecord, origTime time.Duration) (time.Duration, error)) *closedLoop {
	return &closedLoop{
		src: src, clk: clk, evq: evq, submit: submit,
		cursors: make(map[trace.ItemID]*itemCursor),
		parked:  make(map[trace.ItemID]parkedState),
	}
}

// activate returns the item's cursor, reviving parked state or a pooled
// struct as needed. The returned cursor is in the map but may not be in
// the heap (index -1).
func (cl *closedLoop) activate(item trace.ItemID) *itemCursor {
	if c := cl.cursors[item]; c != nil {
		return c
	}
	var c *itemCursor
	if k := len(cl.pool); k > 0 {
		c = cl.pool[k-1]
		cl.pool[k-1] = nil
		cl.pool = cl.pool[:k-1]
	} else {
		c = &itemCursor{}
	}
	*c = itemCursor{buf: c.buf, item: item, index: -1}
	if p, ok := cl.parked[item]; ok {
		c.delay, c.notBefore = p.delay, p.notBefore
		delete(cl.parked, item)
	}
	cl.cursors[item] = c
	return c
}

// sweep evicts cursors that sat drained through the whole previous
// window and drops parked state the stream has provably passed. Map
// iteration order only affects which evicted structs land in the
// bounded pool — pooled structs are fully reset on reuse, so results
// are unchanged.
func (cl *closedLoop) sweep() {
	if len(cl.cursors) > cl.peakCursors {
		cl.peakCursors = len(cl.cursors)
	}
	for item, c := range cl.cursors {
		if c.n != 0 || c.index >= 0 || c.touch >= cl.lastSweep {
			continue
		}
		delete(cl.cursors, item)
		// A future record r has r.Time >= prev, so a zero delay and a
		// fence the stream has passed can never move its issue time:
		// only then is the state forgettable.
		if c.delay != 0 || c.notBefore > cl.prev {
			cl.parked[item] = parkedState{delay: c.delay, notBefore: c.notBefore}
		}
		if len(cl.pool) < cursorPoolMax {
			cl.pool = append(cl.pool, c)
		}
	}
	for item, p := range cl.parked {
		if p.delay == 0 && p.notBefore <= cl.prev {
			delete(cl.parked, item)
		}
	}
	if len(cl.parked) > cl.peakParked {
		cl.peakParked = len(cl.parked)
	}
	cl.lastSweep = cl.n
}

// demux pulls records into per-item queues until the heap's root is
// provably the globally next effective issue (delays are non-negative,
// so a record arriving at T activates at or after T).
func (cl *closedLoop) demux() error {
	for {
		if !cl.havePending {
			if cl.eof {
				return nil
			}
			rec, ok := cl.src.Next()
			if !ok {
				cl.eof = true
				if err := cl.src.Err(); err != nil {
					return fmt.Errorf("replay: %w", err)
				}
				return nil
			}
			if rec.Time < cl.prev {
				return &trace.OrderError{Format: "replay", Record: cl.n, Offset: -1, Prev: cl.prev, Got: rec.Time}
			}
			cl.prev = rec.Time
			cl.n++
			if cl.n-cl.lastSweep > sweepEvery {
				cl.sweep()
			}
			cl.pending = rec
			cl.havePending = true
		}
		if len(cl.h) > 0 && cl.pending.Time > cl.h[0].eff {
			return nil
		}
		c := cl.activate(cl.pending.Item)
		c.push(cl.pending)
		c.touch = cl.n
		cl.havePending = false
		if c.index < 0 {
			eff := cl.pending.Time + c.delay
			if eff < c.notBefore {
				eff = c.notBefore
			}
			c.eff = eff
			cl.h.push(c)
		}
	}
}

// run replays the stream item by item: each item issues its next I/O
// at its original spacing, but never before its previous I/O
// completed. Stalls (queueing, spin-up waits) push the item's remaining
// records back in time, as a blocked application thread would be.
func (cl *closedLoop) run() error {
	for {
		if err := cl.demux(); err != nil {
			return err
		}
		if len(cl.h) == 0 {
			// Source drained and every queued record issued.
			return nil
		}
		c := cl.h[0]
		rec := c.front()
		issueAt := c.eff
		if issueAt < cl.clk.Now() {
			// Another item's stall moved the global clock past this
			// record's effective time; issue immediately.
			issueAt = cl.clk.Now()
		}
		cl.evq.RunUntil(cl.clk, issueAt)
		shifted := rec
		shifted.Time = issueAt
		resp, err := cl.submit(shifted, rec.Time)
		if err != nil {
			return err
		}
		c.notBefore = issueAt + resp
		c.delay = issueAt - rec.Time
		c.pop()
		c.touch = cl.n
		if c.n == 0 {
			cl.h.popRoot()
		} else {
			next := c.front()
			eff := next.Time + c.delay
			if eff < c.notBefore {
				eff = c.notBefore
			}
			c.eff = eff
			cl.h.fixRoot()
		}
	}
}
