// Closed-loop replay: per-data-item streams with queue depth one.
//
// Two engines supply the records. A generated workload's source splits
// by item (itemStreamer), and the item feed (itemfeed.go) reads each
// item's own streams. Any other source (a decoded file, a collected
// slice) is one time-ordered stream, and the demux below splits it into
// per-item queues as it goes. Both engines issue from one (eff, item)
// heap through one issue step; the order is total, so both issue the
// same sequence.
//
// The demux lends ring buffers to cursors only while they hold queued
// records: a drained cursor hands its ring to a free stack, and the
// next cursor that needs one takes it from there. Ring memory is
// therefore bounded by how many items have queued records at once, not
// by how many items the trace holds, even under volume churn.

package replay

import (
	"fmt"
	"math/bits"
	"time"

	"esm/internal/simclock"
	"esm/internal/trace"
)

// itemLine is one item's shifted timeline.
type itemLine struct {
	// delay is how far the item's timeline has been pushed back by
	// stalls; notBefore is the completion time of the item's last I/O.
	delay     time.Duration
	notBefore time.Duration
}

// eff returns the effective issue time of the item's record at t.
func (l *itemLine) eff(t time.Duration) time.Duration {
	if e := t + l.delay; e > l.notBefore {
		return e
	}
	return l.notBefore
}

// cursorKey is one heap entry: an item and the effective issue time of
// its next record. Keys live in the heap itself, so sifting compares
// neighbouring memory instead of chasing a pointer per compare.
type cursorKey struct {
	eff  time.Duration
	item trace.ItemID
}

func keyLess(a, b cursorKey) bool { return lessBit(a, b) == 1 }

// lessBit is 1 when a orders before b, else 0. It takes no branch: the
// 128-bit subtraction (a.eff, a.item) - (b.eff, b.item) borrows exactly
// when a orders first. Which child of a heap node is the smaller one is
// a coin toss to a branch predictor, and the heap holds every started
// item on the item feed.
func lessBit(a, b cursorKey) int {
	_, borrow := bits.Sub64(uint64(uint32(a.item)), uint64(uint32(b.item)), 0)
	_, borrow = bits.Sub64(uint64(a.eff)^1<<63, uint64(b.eff)^1<<63, borrow)
	return int(borrow)
}

// cursorHeap is a binary min-heap of items by (eff, item), holding at
// most one key per item. The item tie-break makes simultaneous
// activations issue in a fixed order, so replays are reproducible run
// to run; and because it is a total order, every correct heap issues
// the same sequence.
type cursorHeap []cursorKey

// push queues k.
func (h *cursorHeap) push(k cursorKey) {
	*h = append(*h, k)
	q := *h
	i := len(q) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !keyLess(k, q[p]) {
			break
		}
		q[i] = q[p]
		i = p
	}
	q[i] = k
}

// fixRoot restores the heap after the root's key grew: the root can
// only sift down.
func (h cursorHeap) fixRoot() {
	n := len(h)
	k := h[0]
	i := 0
	for {
		j := 2*i + 1
		if j >= n {
			break
		}
		if j+1 < n {
			j += lessBit(h[j+1], h[j])
		}
		if lessBit(h[j], k) == 0 {
			break
		}
		h[i] = h[j]
		i = j
	}
	h[i] = k
}

// popRoot dequeues the root.
func (h *cursorHeap) popRoot() {
	q := *h
	n := len(q) - 1
	q[0] = q[n]
	*h = q[:n]
	if n > 0 {
		h.fixRoot()
	}
}

// issuer is what both engines share: the heap and the issue step.
type issuer struct {
	clk    *simclock.Clock
	evq    *simclock.EventQueue
	submit func(rec trace.LogicalRecord, origTime time.Duration) (time.Duration, error)
	h      cursorHeap
}

// issue submits rec, the root item's next record, at the root's
// effective time, or at once if another item's stall moved the clock
// past it, and shifts the item's timeline by the stall: its remaining
// records move back as a blocked application thread's would, and none
// issues before this one completes.
func (is *issuer) issue(l *itemLine, rec trace.LogicalRecord) error {
	issueAt := is.h[0].eff
	if now := is.clk.Now(); issueAt < now {
		issueAt = now
	}
	is.evq.RunUntil(is.clk, issueAt)
	shifted := rec
	shifted.Time = issueAt
	resp, err := is.submit(shifted, rec.Time)
	if err != nil {
		return err
	}
	l.notBefore = issueAt + resp
	l.delay = issueAt - rec.Time
	return nil
}

// itemCursor is one data item's demux queue.
type itemCursor struct {
	itemLine
	// buf is a power-of-two ring buffer holding the item's demuxed,
	// not-yet-issued records in time order. Only records the demuxer has
	// had to read ahead of the current issue point are buffered, so live
	// memory stays bounded by the read-ahead horizon, not O(records).
	// buf is nil while the cursor is drained: its ring went back to the
	// free stack. The item is in the heap exactly while n > 0.
	buf  []trace.LogicalRecord
	head int
	n    int
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

// closedLoop is the demux engine of one closed-loop replay. It exists
// as a struct (rather than closure locals) so tests can inspect the
// cursor slots and the free stack.
type closedLoop struct {
	issuer
	src trace.Source

	cursors []itemCursor // indexed by ItemID
	free    [][]trace.LogicalRecord

	pending     trace.LogicalRecord
	havePending bool
	eof         bool
	prev        time.Duration
	n           int64
}

// newClosedLoop builds the demux engine over a catalog of the given
// number of items; each gets its cursor slot up front.
func newClosedLoop(src trace.Source, items int, clk *simclock.Clock, evq *simclock.EventQueue, submit func(rec trace.LogicalRecord, origTime time.Duration) (time.Duration, error)) *closedLoop {
	return &closedLoop{
		issuer:  issuer{clk: clk, evq: evq, submit: submit},
		src:     src,
		cursors: make([]itemCursor, items),
	}
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
		if c.n == 1 {
			cl.h.push(cursorKey{eff: c.eff(cl.pending.Time), item: cl.pending.Item})
		}
	}
}

// run replays the stream item by item: each item issues its next I/O
// at its original spacing, but never before its previous I/O
// completed.
func (cl *closedLoop) run() error {
	for {
		if err := cl.demux(); err != nil {
			return err
		}
		if len(cl.h) == 0 {
			// Source drained and every queued record issued.
			return nil
		}
		c := &cl.cursors[cl.h[0].item]
		if err := cl.issue(&c.itemLine, c.front()); err != nil {
			return err
		}
		c.pop()
		if c.n == 0 {
			cl.h.popRoot()
			cl.release(c)
			continue
		}
		cl.h[0].eff = c.eff(c.front().Time)
		cl.h.fixRoot()
	}
}
