// Item feed: the closed loop's record supply for a generated workload.
//
// A generated workload's source also hands out the per-item streams it
// merges (itemStreamer). Replayed closed-loop, each item then reads its
// own streams, so nothing is merged across items only to be split by
// item again: the item's only stream writes straight into the batch its
// cursor issues from, and an item with several streams (a DSS partition
// scanned once per query) fills the batch from their merge.
//
// Every stream declares a lower bound on its first record (From). An
// item enters the heap only when the root reaches the earliest From of
// its streams, since until then it cannot hold the next issue; so a
// generator starts when the replay gets to it, not all of them before
// the first I/O.
//
// With a second processor, a producer goroutine fills the batches: an
// item's next batch is asked for when its current one is nearly spent,
// and the first batches of the next startAhead items to start are asked
// for before they start. The producer sleeps between asks, and waking
// it can take longer than the replay takes to reach the batch; so when
// the replay needs a batch the producer has not claimed yet, it claims
// and fills the batch itself rather than wait. A generator that panics
// on the producer reaches the replay as a *sourcePanic with the
// producer's stack; on the replay's own fill it panics there directly.
// At GOMAXPROCS 1 a cursor fills its batch in place when the batch runs
// dry.

package replay

import (
	"fmt"
	"iter"
	"runtime"
	"runtime/debug"
	"slices"
	"sync/atomic"
	"time"

	"esm/internal/trace"
)

const (
	// itemBatchLen is how many records one fill carries. Each fill costs
	// the replay a hand-off to the producer and back, or the fill itself
	// when the producer falls behind; every started item holds a batch.
	itemBatchLen = 64
	// refillAt is how many records of an item's current batch remain
	// when its next batch is asked for. Asking at the last record would
	// leave the cursor waiting for the fill; asking earlier lends the
	// second batch for longer.
	refillAt = 16
	// startAhead is how many items, in start order, have their first
	// batch asked for before they start. A window of activity starts a
	// whole volume's items at one From, so the lead covers such a group.
	startAhead = 64
)

// itemStreamer is a source that can also be read item by item: a
// generated workload's (workload.Source).
type itemStreamer interface {
	ItemStreams() (streams []trace.ItemStream, limit time.Duration)
}

// itemBatch is one fill of an item's records: recs[:n], then, in the
// item's last batch, the failure that ended its streams.
type itemBatch struct {
	recs [itemBatchLen]trace.LogicalRecord
	n    int
	item trace.ItemID
	last bool
	err  error
	pval *sourcePanic // a stream's panic, caught by the producer
}

// genStream pulls one ItemStream's records in fills. It checks that
// each record is of the stream's item, not before From and not before
// its predecessor, and ends the stream at the first record past limit.
type genStream struct {
	st    trace.ItemStream
	index int // the stream's position among the workload's streams
	cat   *trace.Catalog
	limit time.Duration

	next func() (struct{}, bool)
	stop func()
	// dst[:n] are the records the generator wrote in the current fill;
	// count is how many earlier fills delivered.
	dst   []trace.LogicalRecord
	n     int
	count int64
	prev  time.Duration
	done  bool
	err   error

	// buf[pos:bn] is what Next has left of its last fill; only a stream
	// merged with its item's other streams reads through Next.
	buf     []trace.LogicalRecord
	pos, bn int
}

// fill has the generator write its next records into dst, up to
// len(dst), starting it on the first call. It returns how many it
// wrote; fewer than len(dst) means the stream has ended.
func (g *genStream) fill(dst []trace.LogicalRecord) int {
	if g.done {
		return 0
	}
	if g.next == nil {
		g.prev = g.st.From
		g.next, g.stop = iter.Pull(g.gen)
	}
	g.dst, g.n = dst, 0
	if _, ok := g.next(); !ok {
		g.done = true
	}
	n := g.n
	g.dst, g.n = nil, 0
	g.count += int64(n)
	return n
}

// gen runs the generator inside the pull coroutine, pausing it each
// time dst fills.
func (g *genStream) gen(yield func(struct{}) bool) {
	g.st.Seq(func(rec trace.LogicalRecord) bool {
		if rec.Time < g.prev || rec.Item != g.st.Item {
			g.err = g.fault(rec)
			return false
		}
		if rec.Time > g.limit {
			return false
		}
		g.prev = rec.Time
		g.dst[g.n] = rec
		g.n++
		return g.n < len(g.dst) || yield(struct{}{})
	})
}

// fault describes the stream's bad record rec, naming the item and the
// stream.
func (g *genStream) fault(rec trace.LogicalRecord) error {
	where := fmt.Sprintf("replay: item %d (%s), stream %d", g.st.Item, g.cat.Name(g.st.Item), g.index)
	idx := g.count + int64(g.n)
	if rec.Item != g.st.Item {
		return fmt.Errorf("%s: record %d is of item %d", where, idx, rec.Item)
	}
	err := &trace.OrderError{Format: "replay", Record: idx, Offset: -1, Prev: g.prev, Got: rec.Time}
	if idx == 0 {
		return fmt.Errorf("%s: first record before the stream's From: %w", where, err)
	}
	return fmt.Errorf("%s: %w", where, err)
}

// Next returns the stream's next record, for a merge.
func (g *genStream) Next() (trace.LogicalRecord, bool) {
	if g.pos == g.bn {
		if g.buf == nil {
			g.buf = make([]trace.LogicalRecord, itemBatchLen)
		}
		g.bn, g.pos = g.fill(g.buf), 0
		if g.bn == 0 {
			return trace.LogicalRecord{}, false
		}
	}
	rec := g.buf[g.pos]
	g.pos++
	return rec, true
}

// Err returns the stream's bad record, described, or nil.
func (g *genStream) Err() error { return g.err }

// Close stops the generator and drops Next's buffer; the merge closes a
// stream once it ends.
func (g *genStream) Close() error {
	if g.stop != nil {
		g.stop()
	}
	g.done, g.buf = true, nil
	return nil
}

// itemFeed is one item's record supply: its only stream, written
// straight into the batch, or the merge of its streams.
type itemFeed struct {
	gens []*genStream
	many *trace.Merged
}

// fill writes the item's next records into b.
func (f *itemFeed) fill(b *itemBatch) {
	if f.many == nil {
		g := f.gens[0]
		b.n = g.fill(b.recs[:])
		b.last, b.err = g.done, g.err
		return
	}
	n := 0
	for n < len(b.recs) {
		rec, ok := f.many.Next()
		if !ok {
			b.last, b.err = true, f.many.Err()
			// Name the failing stream itself, not its place in the merge.
			for _, g := range f.gens {
				if g.err != nil {
					b.err = g.err
					break
				}
			}
			break
		}
		b.recs[n] = rec
		n++
	}
	b.n = n
}

// feedCursor walks one item's batches through its shifted timeline. Its
// first 64 bytes are what each issue of the item reads and writes.
type feedCursor struct {
	// rec is the next record to issue, b.recs[pos], of n in b. b is nil
	// before the item starts and after it ends.
	rec trace.LogicalRecord
	itemLine
	pos, n int32
	b      *itemBatch

	// asked is the batch asked for the item's next records, until it
	// replaces b; next is asked once filled.
	asked, next *itemBatch
	from        time.Duration // the earliest From of the item's streams
}

// itemLoop is the item-feed engine of one closed-loop replay.
type itemLoop struct {
	issuer
	cursors []feedCursor // indexed by ItemID
	// feeds is indexed by ItemID. While a batch of an item is asked for,
	// the item's feed and streams are the producer's.
	feeds []itemFeed
	gens  []genStream
	// order lists the items that have streams by (from, item); the first
	// started have entered the heap, and the first asked have had their
	// first batch asked for.
	order          []trace.ItemID
	started, asked int
	nextStart      cursorKey // (from, item) of order[started]
	free           []*itemBatch
	prod           *itemProducer // nil at GOMAXPROCS 1
	touched        time.Duration // keeps receive's loads
}

// newItemLoop builds the item-feed engine over the streams, truncated
// at limit, of a catalog's items. With a second processor it starts the
// producer; close stops it.
func newItemLoop(streams []trace.ItemStream, limit time.Duration, cat *trace.Catalog, is issuer) (*itemLoop, error) {
	items := cat.Len()
	il := &itemLoop{
		issuer:  is,
		cursors: make([]feedCursor, items),
		feeds:   make([]itemFeed, items),
		gens:    make([]genStream, len(streams)),
	}
	for i, st := range streams {
		if st.Item < 0 || int(st.Item) >= items {
			return nil, fmt.Errorf("replay: stream %d: item %d is outside the catalog (%d items)", i, st.Item, items)
		}
		g := &il.gens[i]
		*g = genStream{st: st, index: i, cat: cat, limit: limit}
		f, c := &il.feeds[st.Item], &il.cursors[st.Item]
		if len(f.gens) == 0 {
			il.order = append(il.order, st.Item)
			c.from = st.From
		} else {
			c.from = min(c.from, st.From)
		}
		f.gens = append(f.gens, g)
	}
	for _, item := range il.order {
		if f := &il.feeds[item]; len(f.gens) > 1 {
			srcs := make([]trace.Source, len(f.gens))
			for i, g := range f.gens {
				srcs[i] = g
			}
			f.many = trace.MergeSources(srcs...)
		}
	}
	slices.SortFunc(il.order, func(a, b trace.ItemID) int {
		ka, kb := cursorKey{il.cursors[a].from, a}, cursorKey{il.cursors[b].from, b}
		if keyLess(ka, kb) {
			return -1
		}
		return 1
	})
	if len(il.order) > 0 {
		il.nextStart = cursorKey{eff: il.cursors[il.order[0]].from, item: il.order[0]}
	}
	il.h = make(cursorHeap, 0, len(il.order))
	if runtime.GOMAXPROCS(0) > 1 {
		il.prod = newItemProducer(il.feeds, len(il.order))
	}
	return il, nil
}

// run replays the items' records: each item issues its next I/O at its
// original spacing, but never before its previous I/O completed.
func (il *itemLoop) run() error {
	for {
		if il.started < len(il.order) && (len(il.h) == 0 || keyLess(il.nextStart, il.h[0])) {
			if err := il.start(); err != nil {
				return err
			}
			continue
		}
		if len(il.h) == 0 {
			// Every item started, and every record issued.
			return nil
		}
		item := il.h[0].item
		c := &il.cursors[item]
		if err := il.issue(&c.itemLine, c.rec); err != nil {
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

// start lets the next item in start order into the heap: its From
// precedes the root, so its first record may be the next to issue. An
// item whose streams turn out to hold no record never enters.
func (il *itemLoop) start() error {
	item := il.order[il.started]
	il.started++
	if il.started < len(il.order) {
		next := il.order[il.started]
		il.nextStart = cursorKey{eff: il.cursors[next].from, item: next}
	}
	if il.prod != nil {
		for il.asked < len(il.order) && il.asked < il.started+startAhead {
			next := il.order[il.asked]
			il.ask(&il.cursors[next], next, il.prod.start)
			il.asked++
		}
	}
	c := &il.cursors[item]
	if err := il.load(c, item); err != nil || c.b == nil {
		return err
	}
	c.rec = c.b.recs[0]
	il.h.push(cursorKey{eff: c.eff(c.rec.Time), item: item})
	return nil
}

// load replaces c's spent batch, or the absent one of an item not yet
// started, with the item's next records. At the item's end it leaves
// c.b nil and returns the failure that ended the item's streams, if
// any, once every record before it has issued.
func (il *itemLoop) load(c *feedCursor, item trace.ItemID) error {
	for {
		if c.b != nil && c.b.last {
			err := c.b.err
			il.release(c.b)
			c.b = nil
			return err
		}
		if il.prod == nil {
			if c.b == nil {
				c.b = il.take()
			}
			il.feeds[item].fill(c.b)
		} else {
			if c.asked == nil {
				il.ask(c, item, il.prod.refill)
			}
			if c.next == nil && il.prod.claims[item].CompareAndSwap(c.asked, nil) {
				// The producer has not got to the batch, and may be
				// long in getting there (it is woken for each ask):
				// fill it here rather than wait.
				il.feeds[item].fill(c.asked)
				c.next = c.asked
			}
			for c.next == nil {
				if err := il.receive(); err != nil {
					return err
				}
			}
			if c.b != nil {
				il.release(c.b)
			}
			c.b, c.next, c.asked = c.next, nil, nil
		}
		c.pos, c.n = 0, int32(c.b.n)
		if c.n > 0 {
			return nil
		}
	}
}

// ask lends a batch to the producer to fill with the item's next
// records, on ch: the refill or the start queue. Whichever side claims
// the batch first fills it (load, produce).
func (il *itemLoop) ask(c *feedCursor, item trace.ItemID, ch chan<- itemAsk) {
	b := il.take()
	b.item = item
	c.asked = b
	il.prod.claims[item].Store(b)
	select {
	case ch <- itemAsk{item: item, b: b}:
	case <-il.prod.exited:
		// The producer failed; the batch it was filling reports why.
	}
}

// receive hands the producer's next filled batch to its item's cursor.
// A batch that ended the producer, because a stream panicked or ended
// its goroutine, fails the replay at once: nothing after it is filled.
func (il *itemLoop) receive() error {
	b := <-il.prod.done
	if b.pval != nil {
		panic(b.pval)
	}
	if b.err == errSourceExited {
		return fmt.Errorf("replay: item %d: %w", b.item, b.err)
	}
	// Read one record per cache line now, with independent loads, so
	// the lines the producer wrote cross to this core together instead
	// of one miss at a time as the item issues.
	var t time.Duration
	for i := 0; i < b.n; i += 2 {
		t |= b.recs[i].Time
	}
	il.touched |= t
	il.cursors[b.item].next = b
	return nil
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
	b.n, b.last, b.err, b.pval = 0, false, nil, nil
	il.free = append(il.free, b)
}

// close stops the producer, if any, and then every generator still
// running, so no stream outlives the replay.
func (il *itemLoop) close() {
	if il.prod != nil {
		il.prod.stop()
	}
	for i := range il.gens {
		il.gens[i].Close()
	}
}

// itemProducer fills asked-for batches on a goroutine of its own.
type itemProducer struct {
	feeds         []itemFeed
	refill, start chan itemAsk
	done          chan *itemBatch
	// claims holds, per item, the batch asked for it until the producer
	// or the replay claims it to fill. The claimant alone touches the
	// item's feed until the batch is filled.
	claims       []atomic.Pointer[itemBatch]
	quit, exited chan struct{}
}

// itemAsk asks for item's next records in b. An ask the replay claimed
// first stays queued, and the producer drops it.
type itemAsk struct {
	item trace.ItemID
	b    *itemBatch
}

// newItemProducer starts the producer over feeds, indexed by ItemID, of
// which items have streams.
func newItemProducer(feeds []itemFeed, items int) *itemProducer {
	// Each item has at most one batch asked for or filled and not yet
	// taken, so sized to the items, no send on done blocks. The ask
	// queues can also hold asks the replay claimed first: the few it
	// fills itself while the producer falls behind.
	p := &itemProducer{
		feeds:  feeds,
		refill: make(chan itemAsk, items),
		start:  make(chan itemAsk, items),
		done:   make(chan *itemBatch, items),
		claims: make([]atomic.Pointer[itemBatch], len(feeds)),
		quit:   make(chan struct{}),
		exited: make(chan struct{}),
	}
	go p.produce()
	return p
}

// produce fills batches until stop. Refills go first: their cursors are
// draining, while a start is asked for ahead of need. A stream that
// panics or ends the goroutine ends the producer; the batch it was
// filling carries that back.
func (p *itemProducer) produce() {
	var b *itemBatch
	defer func() {
		if b != nil {
			b.last = true
			if v := recover(); v != nil {
				b.pval = &sourcePanic{value: v, stack: debug.Stack()}
			} else {
				b.err = errSourceExited
			}
			p.done <- b
		}
		close(p.exited)
	}()
	for {
		var ask itemAsk
		select {
		case ask = <-p.refill:
		default:
			select {
			case ask = <-p.refill:
			case ask = <-p.start:
			case <-p.quit:
				return
			}
		}
		if !p.claims[ask.item].CompareAndSwap(ask.b, nil) {
			continue
		}
		b = ask.b
		p.feeds[ask.item].fill(b)
		p.done <- b
		b = nil
	}
}

// stop ends the producer and returns once it has exited. A fill in
// progress finishes first.
func (p *itemProducer) stop() {
	close(p.quit)
	<-p.exited
}
