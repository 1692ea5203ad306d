// Read-ahead: a source's records produced on a goroutine of their own,
// handed over in batches, so decoding, generating or merging a trace
// overlaps whatever consumes it on a second core. Only the
// order-preserving production of records moves, so the consumer reads
// exactly the records, in exactly the order, it would read from the
// source directly. replay.Execute reads a replayed source ahead this
// way, and a generated workload merges each range of its streams on a
// read-ahead of its own (MergeRanges).

package trace

import (
	"errors"
	"fmt"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

const (
	// ReadAheadBatch is how many records one hand-off carries: enough
	// that the two channel operations per batch cost a few ns per
	// record, few enough that the batches stay in cache.
	ReadAheadBatch = 512
	// ReadAheadBatches is how many batches exist, and so how far the
	// producer may run ahead of the consumer: it fills the batches the
	// consumer is not reading and then waits for one to come back.
	ReadAheadBatches = 4
)

// producers counts the read-ahead producer goroutines running in the
// process.
var producers atomic.Int32

// ReadAheads returns how many read-ahead producers are running in the
// process, from NewReadAhead until the producer exits (before Stop
// returns). A consumer that keeps its producer fed keeps a processor
// busy, so a source about to start producers of its own can leave
// those processors out (workload.Source does).
func ReadAheads() int { return int(producers.Load()) }

// ErrSourceExited reports a source that ended the goroutine producing
// its records with runtime.Goexit instead of returning from Next.
var ErrSourceExited = errors.New("trace source exited its goroutine")

// raBatch is one hand-off: recs[:n], then, in the last batch, how the
// source ended.
type raBatch struct {
	recs [ReadAheadBatch]LogicalRecord
	n    int
	last bool
	err  error        // the source's Err, or ErrSourceExited
	pval *SourcePanic // the source's panic, if it panicked
}

// SourcePanic is a panic in a source read on a producer goroutine,
// carried to the consuming goroutine with the producer's stack at the
// panic, which the re-raised panic would otherwise lose. It unwraps to
// the panic value when that is an error.
type SourcePanic struct {
	Value any
	Stack []byte
}

func (p *SourcePanic) Error() string {
	return fmt.Sprintf("%v\n\ntrace source goroutine:\n%s", p.Value, p.Stack)
}

func (p *SourcePanic) Unwrap() error {
	err, _ := p.Value.(error)
	return err
}

// ReadAhead is the consumer's side of a read-ahead: a Source over the
// batches the producer fills. The ReadAheadBatches batches circulate
// between full (producer to consumer) and free (consumer to producer);
// each channel can hold all of them, so no send blocks, and steady
// state allocates nothing.
type ReadAhead struct {
	src        Source
	full, free chan *raBatch
	quit, done chan struct{}
	b          *raBatch // the batch being read
	pos        int
	stop       sync.Once
}

// NewReadAhead starts a producer goroutine reading src and returns the
// source that hands its records over. The producer runs until src ends
// or Stop; the caller must not touch src until then.
func NewReadAhead(src Source) *ReadAhead {
	ra := &ReadAhead{
		src:  src,
		full: make(chan *raBatch, ReadAheadBatches),
		free: make(chan *raBatch, ReadAheadBatches),
		quit: make(chan struct{}),
		done: make(chan struct{}),
		b:    new(raBatch), // empty; the first Next hands it over
	}
	for range ReadAheadBatches - 1 {
		ra.free <- new(raBatch)
	}
	producers.Add(1)
	go ra.produce()
	return ra
}

// produce fills free batches from the source until it ends or Stop is
// called. The batch that ends the stream carries the source's error or
// panic, after the records read before it.
func (ra *ReadAhead) produce() {
	var b *raBatch
	ended := false
	defer func() {
		if !ended {
			// Next panicked or called runtime.Goexit with b in hand.
			b.last = true
			if v := recover(); v != nil {
				b.pval = &SourcePanic{Value: v, Stack: debug.Stack()}
			} else {
				b.err = ErrSourceExited
			}
			ra.full <- b
		}
		producers.Add(-1)
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
		for b.n < ReadAheadBatch {
			rec, ok := ra.src.Next()
			if !ok {
				b.last, b.err = true, ra.src.Err()
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
// consumer's goroutine, once the records before it are delivered, as a
// *SourcePanic holding the value and the producer's stack.
func (ra *ReadAhead) Next() (LogicalRecord, bool) {
	for ra.pos == ra.b.n {
		if ra.b.last {
			if ra.b.pval != nil {
				panic(ra.b.pval)
			}
			return LogicalRecord{}, false
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
func (ra *ReadAhead) Err() error { return ra.b.err }

// Stop ends the producer and returns once it has exited, so the caller
// may close the source. A producer inside Next finishes that batch
// first. Stop may be called more than once.
func (ra *ReadAhead) Stop() {
	ra.stop.Do(func() { close(ra.quit) })
	<-ra.done
}

// Close stops the producer, then closes the source it read.
func (ra *ReadAhead) Close() error {
	ra.Stop()
	closeSource(ra.src)
	return nil
}
