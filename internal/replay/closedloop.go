// Closed-loop replay: per-data-item streams with queue depth one,
// demultiplexed incrementally from a streaming source.
//
// Each catalog item owns one cursor slot, indexed by ItemID. Ring
// buffers are lent to cursors only while they hold queued records: a
// drained cursor hands its ring to a free stack, and the next cursor
// that needs one takes it from there. Ring memory is therefore bounded
// by how many items have queued records at once, not by how many items
// the trace holds, even under volume churn.

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
	// memory stays bounded by the read-ahead horizon, not O(records).
	// buf is nil while the cursor is drained: its ring went back to the
	// free stack.
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

// closedLoop is the demux state of one closed-loop replay. It exists as
// a struct (rather than closure locals) so tests can inspect the cursor
// slots and the free stack.
type closedLoop struct {
	src    trace.Source
	clk    *simclock.Clock
	evq    *simclock.EventQueue
	submit func(rec trace.LogicalRecord, origTime time.Duration) (time.Duration, error)

	cursors []itemCursor // indexed by ItemID
	free    [][]trace.LogicalRecord
	h       cursorHeap

	pending     trace.LogicalRecord
	havePending bool
	eof         bool
	prev        time.Duration
	n           int64
}

// newClosedLoop builds the engine over a catalog of the given number
// of items; each gets its cursor slot up front.
func newClosedLoop(src trace.Source, items int, clk *simclock.Clock, evq *simclock.EventQueue, submit func(rec trace.LogicalRecord, origTime time.Duration) (time.Duration, error)) *closedLoop {
	cursors := make([]itemCursor, items)
	for i := range cursors {
		cursors[i] = itemCursor{item: trace.ItemID(i), index: -1}
	}
	return &closedLoop{src: src, clk: clk, evq: evq, submit: submit, cursors: cursors}
}

// enqueue appends rec to its item's cursor, lending the cursor a ring
// from the free stack when it has none.
func (cl *closedLoop) enqueue(c *itemCursor, rec trace.LogicalRecord) {
	if c.buf == nil {
		if k := len(cl.free); k > 0 {
			c.buf = cl.free[k-1]
			cl.free[k-1] = nil
			cl.free = cl.free[:k-1]
		}
	}
	c.push(rec)
}

// release returns a drained cursor's ring to the free stack.
func (cl *closedLoop) release(c *itemCursor) {
	cl.free = append(cl.free, c.buf)
	c.buf, c.head = nil, 0
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
			if rec.Item < 0 || int(rec.Item) >= len(cl.cursors) {
				return fmt.Errorf("replay: record %d: item %d is outside the catalog (%d items)", cl.n, rec.Item, len(cl.cursors))
			}
			cl.prev = rec.Time
			cl.n++
			cl.pending = rec
			cl.havePending = true
		}
		if len(cl.h) > 0 && cl.pending.Time > cl.h[0].eff {
			return nil
		}
		c := &cl.cursors[cl.pending.Item]
		cl.enqueue(c, cl.pending)
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
		if c.n == 0 {
			cl.h.popRoot()
			cl.release(c)
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
