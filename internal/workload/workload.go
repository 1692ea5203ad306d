// Package workload synthesises the three data-intensive application
// traces of the paper's evaluation: a file server (standing in for the
// MSR Cambridge production trace), OLTP (TPC-C-like) and DSS
// (TPC-H-like). The generators are calibrated so that the logical I/O
// pattern mix of the data items matches Fig. 6 of the paper, and so that
// the block-level behaviour reproduces the properties the evaluation
// hinges on — most importantly that enclosure-level I/O intervals are
// much shorter than item-level ones, which is why the physical-only
// baselines underperform (§II-D, Fig. 2).
//
// All generators are deterministic for a given seed.
package workload

import (
	"math"
	"math/rand"
	"runtime"
	"time"

	"esm/internal/trace"
)

// Workload is a generated application trace ready for replay.
type Workload struct {
	// Name identifies the workload ("fileserver", "oltp", "dss").
	Name string
	// Catalog names the data items.
	Catalog *trace.Catalog
	// Streams holds the per-item lazy event sequences the generator
	// planned. Source merges them on demand; the workload itself never
	// holds a record.
	Streams []trace.ItemStream
	// Placement is the initial enclosure per item.
	Placement []int
	// Enclosures is the number of disk enclosures the workload assumes.
	Enclosures int
	// Duration is the trace span.
	Duration time.Duration
	// BaseThroughput is the application throughput measured without power
	// saving (tpmC for OLTP); used by the derived-performance formulas.
	BaseThroughput float64
	// Windows marks named sub-spans (TPC-H queries) for per-query
	// response analysis.
	Windows []Window
	// ClosedLoop marks traces whose I/O streams block on completion
	// (scans, file sessions); the replay engine shifts stalled streams
	// instead of piling waits onto every I/O. OLTP traces, generated by
	// many concurrent threads, replay open-loop.
	ClosedLoop bool
}

// Window is a named measurement sub-span of the workload.
type Window struct {
	Name  string
	Start time.Duration
	End   time.Duration
}

// Source returns a fresh time-ordered stream of the workload's records.
// Each call returns an independent single-use source, so concurrent
// replays of the same workload each take their own.
func (w *Workload) Source() *Source {
	return &Source{streams: w.Streams, limit: w.Duration}
}

// Source is a generated workload's trace. Read with Next, it is a k-way
// merge of readers over the per-item lazy streams (ItemStream.Open),
// each ending at the workload's Duration, so the merge holds one cursor
// per stream; it starts on the first Next. The first Next splits the
// merge over the processors that no running read-ahead producer
// (trace.ReadAheads) holds: with two or more of them free, the
// streams are merged in that many ranges of contiguous indices, each
// generated and merged on a producer goroutine of its own, and the
// ranges merged on the caller's (trace.MergeRanges): the same records
// in the same order, with generation and most of the merge off the
// caller's goroutine. With one free, the caller merges every stream
// itself: at GOMAXPROCS 1, and at GOMAXPROCS 2 when the source is read
// on replay.Execute's read-ahead producer or beside a concurrent
// replay's, where the split's extra goroutines slowed esmbench's
// cloud-block replays (EXPERIMENTS.md).
//
// A consumer that stops reading before the end must Close the source,
// which stops the producers before it stops the generators. A
// consumer that would split the merge by item again reads ItemStreams
// instead and leaves the merge unstarted.
type Source struct {
	streams []trace.ItemStream
	limit   time.Duration
	merged  *trace.Merged
}

// Next returns the merged stream's next record.
func (s *Source) Next() (trace.LogicalRecord, bool) {
	if s.merged == nil {
		srcs := make([]trace.Source, len(s.streams))
		for i, st := range s.streams {
			srcs[i] = st.Open(s.limit)
		}
		s.merged = trace.MergeRanges(runtime.GOMAXPROCS(0)-trace.ReadAheads(), srcs...)
	}
	return s.merged.Next()
}

// Err returns the merge's failure, or nil.
func (s *Source) Err() error {
	if s.merged == nil {
		return nil
	}
	return s.merged.Err()
}

// Close stops the merge's producers and then its generators, if the
// merge started. It is safe to call more than once and after the end.
func (s *Source) Close() error {
	if s.merged != nil {
		s.merged.Close()
	}
	return nil
}

// ItemStreams returns the streams the merge reads, several per item
// where the generator planned several (a DSS partition is scanned once
// per query), and the span the trace ends at: a record past limit is
// not part of the trace.
func (s *Source) ItemStreams() (streams []trace.ItemStream, limit time.Duration) {
	return s.streams, s.limit
}

// expDur draws an exponentially distributed duration with the given mean.
func expDur(rng *rand.Rand, mean time.Duration) time.Duration {
	return time.Duration(rng.ExpFloat64() * float64(mean))
}

// clampDur limits d to [lo, hi].
func clampDur(d, lo, hi time.Duration) time.Duration {
	if d < lo {
		return lo
	}
	if d > hi {
		return hi
	}
	return d
}

// lognormBytes draws a lognormal size with the given median and sigma,
// clamped to [lo, hi].
func lognormBytes(rng *rand.Rand, median float64, sigma float64, lo, hi int64) int64 {
	v := int64(median * math.Exp(rng.NormFloat64()*sigma))
	if v < lo {
		v = lo
	}
	if v > hi {
		v = hi
	}
	return v
}

// randOffset returns a random page-aligned offset for an I/O of size n
// within an item of the given size.
func randOffset(rng *rand.Rand, itemSize int64, n int32) int64 {
	max := itemSize - int64(n)
	if max <= 0 {
		return 0
	}
	const align = 4096
	off := rng.Int63n(max)
	return off - off%align
}
