// Read-ahead: Execute produces a non-slice source's records on a
// goroutine of its own, so decoding or generating the trace overlaps
// the simulation on a second core. The simulator itself stays on the
// Execute goroutine; only the order-preserving production of records
// moves, so every replay is as deterministic as before.

package replay

import (
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"

	"esm/internal/trace"
)

const (
	// readAheadBatch is how many records one hand-off carries: enough
	// that the two channel operations per batch cost a few ns per
	// record, few enough that the batches stay in cache.
	readAheadBatch = 512
	// readAheadBatches is how many batches exist, and so how far the
	// producer may run ahead of the simulator: it fills the batches the
	// simulator is not reading and then waits for one to come back.
	readAheadBatches = 4
)

// errSourceExited reports a source that ended the producer goroutine
// with runtime.Goexit instead of returning from Next.
var errSourceExited = errors.New("trace source exited its goroutine")

// raBatch is one hand-off: recs[:n], then, in the last batch, how the
// source ended.
type raBatch struct {
	recs [readAheadBatch]trace.LogicalRecord
	n    int
	last bool
	err  error        // the source's Err, or errSourceExited
	pval *sourcePanic // the source's panic, if it panicked
}

// sourcePanic is a panic in the source, carried to the Execute
// goroutine with the producer's stack at the panic, which the
// re-raised panic would otherwise lose. It unwraps to the panic value
// when that is an error.
type sourcePanic struct {
	value any
	stack []byte
}

func (p *sourcePanic) Error() string {
	return fmt.Sprintf("%v\n\ntrace source goroutine:\n%s", p.value, p.stack)
}

func (p *sourcePanic) Unwrap() error {
	err, _ := p.value.(error)
	return err
}

// readAhead is the simulator's side of the read-ahead: a Source over the
// batches the producer fills. The readAheadBatches batches circulate
// between full (producer to simulator) and free (simulator to
// producer); each channel can hold all of them, so no send blocks, and
// steady state allocates nothing.
type readAhead struct {
	full, free chan *raBatch
	quit, done chan struct{}
	b          *raBatch // the batch being read
	pos        int
}

// readAheadOf returns src read ahead on a new producer goroutine, and
// the function that stops that goroutine and waits for it to exit. A
// SliceSource, what esmbench's sweeps replay, is returned as it is
// (with a no-op stop): indexing a slice leaves nothing to overlap, and
// reading it ahead made `esmbench -sweep` slower on both workloads
// measured (EXPERIMENTS.md, "reading the trace ahead").
// So is any source when GOMAXPROCS is 1: with no second processor to
// produce on, the hand-off never won a majority of sixteen benchmark
// pairs.
// Concurrent Executes each read ahead even when their producers
// outnumber the processors: esmbench's cloud-block evaluation, two
// workers on two processors, replayed faster so (EXPERIMENTS.md).
func readAheadOf(src trace.Source) (trace.Source, func()) {
	if _, ok := src.(*trace.SliceSource); ok || runtime.GOMAXPROCS(0) < 2 {
		return src, func() {}
	}
	ra := &readAhead{
		full: make(chan *raBatch, readAheadBatches),
		free: make(chan *raBatch, readAheadBatches),
		quit: make(chan struct{}),
		done: make(chan struct{}),
		b:    new(raBatch), // empty; the first Next hands it over
	}
	for range readAheadBatches - 1 {
		ra.free <- new(raBatch)
	}
	go ra.produce(src)
	return ra, ra.stop
}

// produce fills free batches from src until the source ends or stop is
// called. The batch that ends the stream carries the source's error or
// panic, after the records read before it.
func (ra *readAhead) produce(src trace.Source) {
	var b *raBatch
	ended := false
	defer func() {
		if !ended {
			// Next panicked or called runtime.Goexit with b in hand.
			b.last = true
			if v := recover(); v != nil {
				b.pval = &sourcePanic{value: v, stack: debug.Stack()}
			} else {
				b.err = errSourceExited
			}
			ra.full <- b
		}
		close(ra.done)
	}()
	for {
		select {
		case <-ra.quit:
			ended = true
			return
		case b = <-ra.free:
		}
		b.n = 0
		for b.n < readAheadBatch {
			rec, ok := src.Next()
			if !ok {
				b.last, b.err = true, src.Err()
				break
			}
			b.recs[b.n] = rec
			b.n++
		}
		ended = b.last
		ra.full <- b
		if b.last {
			return
		}
	}
}

// Next returns the next record, waiting for the producer when the
// current batch is spent. A panic in the source is raised here, on the
// simulator's goroutine, once the records before it are delivered, as
// a *sourcePanic holding the value and the producer's stack.
func (ra *readAhead) Next() (trace.LogicalRecord, bool) {
	for ra.pos == ra.b.n {
		if ra.b.last {
			if ra.b.pval != nil {
				panic(ra.b.pval)
			}
			return trace.LogicalRecord{}, false
		}
		ra.free <- ra.b
		ra.b, ra.pos = <-ra.full, 0
	}
	rec := ra.b.recs[ra.pos]
	ra.pos++
	return rec, true
}

// Err returns the source's failure once Next has reported the end:
// only the last batch carries one.
func (ra *readAhead) Err() error { return ra.b.err }

// stop ends the producer and returns once it has exited, so the caller
// may close the source. A producer inside Next finishes that batch
// first.
func (ra *readAhead) stop() {
	close(ra.quit)
	<-ra.done
}
