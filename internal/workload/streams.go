// Lazy per-item event streams. Generators no longer build one giant
// record slice: each data item registers a re-iterable sequence that
// synthesises its records on demand from its own seeded RNG, and
// Workload.Source merges the per-item cursors on the fly. Peak memory
// for a streaming replay is O(items), however long the trace runs.

package workload

import (
	"math/rand"
	"time"

	"esm/internal/trace"
)

// emitFunc receives one generated event; it returns false when the
// consumer has stopped and the generator must return.
type emitFunc func(t time.Duration, off int64, size int32, op trace.Op) bool

// streams collects the per-item sequences while a generator plans a
// workload.
type streams struct {
	list []trace.ItemStream
}

// lazy registers a generator-backed stream for item id whose first
// record is at or after from. gen runs once per iteration with a fresh
// RNG seeded by seed, so the stream is both lazy and deterministic; it
// must emit records in time order and stop when emit returns false.
func (ss *streams) lazy(id trace.ItemID, from time.Duration, seed int64, gen func(rng *rand.Rand, emit emitFunc)) {
	ss.list = append(ss.list, trace.ItemStream{
		Item: id,
		From: from,
		Seq: func(yield func(trace.LogicalRecord) bool) {
			rng := rand.New(rand.NewSource(seed))
			gen(rng, func(t time.Duration, off int64, size int32, op trace.Op) bool {
				return yield(trace.LogicalRecord{Time: t, Item: id, Offset: off, Size: size, Op: op})
			})
		},
	})
}

// pure registers a deterministic stream that needs no RNG (sequential
// scans whose offsets follow from the plan) and starts at from. gen
// must emit records in time order and stop when emit returns false.
func (ss *streams) pure(id trace.ItemID, from time.Duration, gen func(emit emitFunc)) {
	ss.list = append(ss.list, trace.ItemStream{
		Item: id,
		From: from,
		Seq: func(yield func(trace.LogicalRecord) bool) {
			gen(func(t time.Duration, off int64, size int32, op trace.Op) bool {
				return yield(trace.LogicalRecord{Time: t, Item: id, Offset: off, Size: size, Op: op})
			})
		},
	})
}

// fixed registers a small pre-materialized stream (planning-time records
// such as the DSS query log). recs must be sorted by time.
func (ss *streams) fixed(id trace.ItemID, recs []trace.LogicalRecord) {
	var from time.Duration
	if len(recs) > 0 {
		from = recs[0].Time
	}
	ss.list = append(ss.list, trace.ItemStream{
		Item: id,
		From: from,
		Seq: func(yield func(trace.LogicalRecord) bool) {
			for _, r := range recs {
				if !yield(r) {
					return
				}
			}
		},
	})
}
