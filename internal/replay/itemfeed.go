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
// on the producer reaches the replay as a *trace.SourcePanic with the
// producer's stack; on the replay's own fill it panics there directly.
// At GOMAXPROCS 1 a cursor fills its batch in place when the batch runs
// dry.

package replay

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"slices"
	"sync/atomic"
	"time"

	"esm/internal/trace"
)

const (
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

// itemFeed is one item's record supply: its only stream, read straight
// into the batch, or the merge of its streams.
type itemFeed struct {
	streams []feedStream
	many    *trace.Merged
}

// feedStream is one of an item's streams, with its position among the
// workload's streams, which its failure names.
type feedStream struct {
	*trace.ItemReader
	index int
}

// fill writes the item's next records into b.
func (f *itemFeed) fill(b *itemBatch) {
	if f.many == nil {
		s := f.streams[0]
		b.n = s.Fill(b.recs[:])
		b.last, b.err = b.n < len(b.recs), s.fault()
		return
	}
	n := 0
	for n < len(b.recs) {
		rec, ok := f.many.Next()
		if !ok {
			b.last, b.err = true, f.many.Err()
			// Name the failing stream itself, not its place in the merge.
			for _, s := range f.streams {
				if err := s.fault(); err != nil {
					b.err = err
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

// fault returns the stream's failure, naming the stream, or nil.
func (s feedStream) fault() error {
	if err := s.Err(); err != nil {
		return fmt.Errorf("stream %d: %w", s.index, err)
	}
	return nil
}

// feed sets the loop to read the streams, truncated at limit, each
// item from its own. With a second processor it starts the producer.
func (il *itemLoop) feed(streams []trace.ItemStream, limit time.Duration) error {
	items := len(il.cursors)
	il.feeds = make([]itemFeed, items)
	for i, st := range streams {
		if st.Item < 0 || int(st.Item) >= items {
			return fmt.Errorf("replay: stream %d: item %d is outside the catalog (%d items)", i, st.Item, items)
		}
		f, c := &il.feeds[st.Item], &il.cursors[st.Item]
		if len(f.streams) == 0 {
			il.order = append(il.order, st.Item)
			c.from = st.From
		} else {
			c.from = min(c.from, st.From)
		}
		f.streams = append(f.streams, feedStream{st.Open(limit), i})
	}
	for _, item := range il.order {
		if f := &il.feeds[item]; len(f.streams) > 1 {
			srcs := make([]trace.Source, len(f.streams))
			for i, s := range f.streams {
				srcs[i] = s
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
	return nil
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

// refill puts the item's next records from its feed in c.b: filled in
// place at GOMAXPROCS 1, else the batch asked for them, which replaces
// c's spent one.
func (il *itemLoop) refill(c *feedCursor, item trace.ItemID) error {
	if il.prod == nil {
		if c.b == nil {
			c.b = il.take()
		}
		il.feeds[item].fill(c.b)
		return nil
	}
	if c.asked == nil {
		il.ask(c, item, il.prod.refill)
	}
	if c.next == nil && il.prod.claims[item].CompareAndSwap(c.asked, nil) {
		// The producer has not got to the batch, and may be long in
		// getting there (it is woken for each ask): fill it here rather
		// than wait.
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
	return nil
}

// ask lends a batch to the producer to fill with the item's next
// records, on ch: the refill or the start queue. Whichever side claims
// the batch first fills it (refill, produce).
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
	if b.err == trace.ErrSourceExited {
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

// close stops the producer, if any, and then every generator still
// running, so no stream outlives the replay.
func (il *itemLoop) close() {
	if il.prod != nil {
		il.prod.stop()
	}
	for _, f := range il.feeds {
		for _, s := range f.streams {
			s.Close()
		}
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
				b.pval = &trace.SourcePanic{Value: v, Stack: debug.Stack()}
			} else {
				b.err = trace.ErrSourceExited
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
