// Closed-loop replay: per-data-item streams with queue depth one.
//
// One engine, itemLoop, issues every closed-loop replay from one
// (eff, item) heap of per-item cursors, each walking its item's records
// in 64-record batches drawn from one pool. Records enter it by one of
// two admission rules. A generated workload's source splits by item
// (itemStreamer): each item reads its own streams (itemfeed.go) and
// enters the heap when the root reaches the earliest From of its
// streams. Any other source (a decoded file, a collected slice) is one
// time-ordered stream, which admit reads only as far as the root's
// effective time, queueing each record into its item's batches. The
// order is total, so both rules issue the same sequence.
//
// A demuxed item holds batches only while it has queued records: a
// drained item's batch goes back to the pool, and the item comes back
// when its next record is admitted. Batch memory is therefore bounded
// by how many items have queued records at once, not by how many items
// the trace holds, even under volume churn.

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

// itemBatchLen is how many records one batch carries. Each item feed
// fill costs the replay a hand-off to the producer and back, or the
// fill itself when the producer falls behind; every started item holds
// a batch.
const itemBatchLen = 64

// itemBatch is a run of an item's records: recs[:n], then, in the
// item feed's last batch, the failure that ended its streams. A
// demuxed item's records continue in chain once recs is full.
type itemBatch struct {
	recs  [itemBatchLen]trace.LogicalRecord
	n     int
	item  trace.ItemID
	last  bool
	err   error
	pval  *trace.SourcePanic // a stream's panic, caught by the producer
	chain *itemBatch
}

// feedCursor walks one item's batches through its shifted timeline. Its
// first 64 bytes are what each issue of the item reads and writes.
type feedCursor struct {
	// rec is the next record to issue, b.recs[pos], of n in b. b is nil
	// while the item is out of the heap.
	rec trace.LogicalRecord
	itemLine
	pos, n int32
	b      *itemBatch

	// tail is the last batch of b's chain, where the demux queues the
	// item's records.
	tail *itemBatch
	// asked is the batch asked for the item's next records, until it
	// replaces b; next is asked once filled.
	asked, next *itemBatch
	from        time.Duration // the earliest From of the item's streams
}

// itemLoop is the engine of one closed-loop replay.
type itemLoop struct {
	clk    *simclock.Clock
	evq    *simclock.EventQueue
	submit func(rec trace.LogicalRecord, origTime time.Duration) (time.Duration, error)
	h      cursorHeap

	cursors []feedCursor // indexed by ItemID
	free    []*itemBatch
	cat     *trace.Catalog // names an item whose stream fails

	// src is the demuxed source until it ends; pending is its next
	// record, read but not yet admitted, and n counts the records read.
	src         trace.Source
	pending     trace.LogicalRecord
	havePending bool
	prev        time.Duration
	n           int64

	// feeds is indexed by ItemID, nil on a demuxed source. While a batch
	// of an item is asked for, the item's feed and streams are the
	// producer's.
	feeds []itemFeed
	// order lists the items that have streams by (from, item); the first
	// started have entered the heap, and the first asked have had their
	// first batch asked for.
	order          []trace.ItemID
	started, asked int
	nextStart      cursorKey     // (from, item) of order[started]
	prod           *itemProducer // nil at GOMAXPROCS 1
	touched        time.Duration // keeps receive's loads
}

// newItemLoop builds the closed loop over src's records and a catalog
// of items. A source that splits by item supplies each item from its
// own streams; any other is demuxed. close stops what it started.
func newItemLoop(src trace.Source, cat *trace.Catalog, clk *simclock.Clock, evq *simclock.EventQueue, submit func(rec trace.LogicalRecord, origTime time.Duration) (time.Duration, error)) (*itemLoop, error) {
	il := &itemLoop{clk: clk, evq: evq, submit: submit, cursors: make([]feedCursor, cat.Len()), cat: cat}
	if is, ok := src.(itemStreamer); ok {
		return il, il.feed(is.ItemStreams())
	}
	il.src = src
	return il, nil
}

// run replays the items' records: each item issues its next I/O at its
// original spacing, but never before its previous I/O completed.
func (il *itemLoop) run() error {
	for {
		if il.src != nil {
			if err := il.admit(); err != nil {
				return err
			}
		}
		if il.started < len(il.order) && (len(il.h) == 0 || keyLess(il.nextStart, il.h[0])) {
			if err := il.start(); err != nil {
				return err
			}
			continue
		}
		if len(il.h) == 0 {
			// Every record admitted and issued.
			return nil
		}
		item := il.h[0].item
		c := &il.cursors[item]
		if err := il.issue(c); err != nil {
			return err
		}
		if c.pos++; c.pos == c.n {
			if err := il.load(c, item); err != nil {
				return err
			}
			if c.b == nil {
				il.h.popRoot()
				continue
			}
		} else if c.n-c.pos <= refillAt && il.prod != nil && c.asked == nil && !c.b.last {
			il.ask(c, item, il.prod.refill)
		}
		c.rec = c.b.recs[c.pos]
		il.h[0].eff = c.eff(c.rec.Time)
		il.h.fixRoot()
	}
}

// issue submits c.rec, the root item's next record, at the root's
// effective time, or at once if another item's stall moved the clock
// past it, and shifts the item's timeline by the stall: its remaining
// records move back as a blocked application thread's would, and none
// issues before this one completes.
func (il *itemLoop) issue(c *feedCursor) error {
	issueAt := il.h[0].eff
	if now := il.clk.Now(); issueAt < now {
		issueAt = now
	}
	il.evq.RunUntil(il.clk, issueAt)
	shifted := c.rec
	shifted.Time = issueAt
	resp, err := il.submit(shifted, c.rec.Time)
	if err != nil {
		return err
	}
	c.notBefore = issueAt + resp
	c.delay = issueAt - c.rec.Time
	return nil
}

// admit reads the demuxed source into its items' batches until the
// next record's time is after the root's effective time. Delays are
// non-negative, so that record cannot issue before the root; the
// earlier ones, whatever their items, are all in the heap.
func (il *itemLoop) admit() error {
	for {
		if !il.havePending {
			rec, ok := il.src.Next()
			if !ok {
				err := il.src.Err()
				il.src = nil
				if err != nil {
					return fmt.Errorf("replay: %w", err)
				}
				return nil
			}
			if rec.Time < il.prev {
				return &trace.OrderError{Format: "replay", Record: il.n, Offset: -1, Prev: il.prev, Got: rec.Time}
			}
			if rec.Item < 0 || int(rec.Item) >= len(il.cursors) {
				return fmt.Errorf("replay: record %d: item %d is outside the catalog (%d items)", il.n, rec.Item, len(il.cursors))
			}
			il.prev = rec.Time
			il.n++
			il.pending, il.havePending = rec, true
		}
		if len(il.h) > 0 && il.pending.Time > il.h[0].eff {
			return nil
		}
		il.queue(il.pending)
		il.havePending = false
	}
}

// queue appends a demuxed record to its item's batches, chaining a
// batch from the pool when the tail is full. An item out of the heap
// comes back with it; its timeline carried over.
func (il *itemLoop) queue(rec trace.LogicalRecord) {
	c := &il.cursors[rec.Item]
	if c.b == nil {
		c.b = il.take()
		c.tail, c.pos, c.n, c.rec = c.b, 0, 0, rec
		il.h.push(cursorKey{eff: c.eff(rec.Time), item: rec.Item})
	} else if c.tail.n == itemBatchLen {
		c.tail.chain = il.take()
		c.tail = c.tail.chain
	}
	t := c.tail
	t.recs[t.n] = rec
	if t.n++; t == c.b {
		c.n++
	}
}

// load replaces c's spent batch, or the absent one of an item not yet
// started, with the item's next records: the next chained batch, else
// a refill from the item's feed. With neither, the item leaves the
// heap: load leaves c.b nil and returns the failure that ended the
// item's streams, if any, once every record before it has issued.
func (il *itemLoop) load(c *feedCursor, item trace.ItemID) error {
	for {
		if b := c.b; b != nil && b.chain != nil {
			c.b = b.chain
			il.release(b)
		} else if b != nil && (b.last || il.feeds == nil) {
			err := b.err
			il.release(b)
			c.b = nil
			if err != nil {
				return fmt.Errorf("replay: item %d (%s), %w", item, il.cat.Name(item), err)
			}
			return nil
		} else if err := il.refill(c, item); err != nil {
			return err
		}
		c.pos, c.n = 0, int32(c.b.n)
		if c.n > 0 {
			return nil
		}
	}
}

// take returns a spare batch, or a new one.
func (il *itemLoop) take() *itemBatch {
	if k := len(il.free); k > 0 {
		b := il.free[k-1]
		il.free = il.free[:k-1]
		return b
	}
	return new(itemBatch)
}

// release keeps a spent batch for reuse.
func (il *itemLoop) release(b *itemBatch) {
	b.n, b.last, b.err, b.pval, b.chain = 0, false, nil, nil, nil
	il.free = append(il.free, b)
}
