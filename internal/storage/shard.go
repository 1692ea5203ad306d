// Shard partitioning of the array for the sharded replay engine.
//
// The engine splits the enclosures into contiguous groups ("shards") and
// runs each group's physical I/O on its own worker lane. The split is
// safe because almost all of an enclosure's hot-path state — power
// accumulator, server queue, sequential-stream cursors, busy horizon —
// is touched only by arrivals to that enclosure. Everything shared
// (cache partitions, item/extent maps, counters, the migration queue,
// telemetry) stays with the conductor, which prepares each I/O with
// PlanSubmit, hands the enclosure physics to the owning shard with
// ExecPlanned, and finishes the cache admission with AdmitPlanned.
//
// The conductor installs a sync hook (SetSyncHook) that the array calls
// at the top of every public method touching shard-owned state: any
// policy action — a migration, a cache re-selection, a spin-down toggle,
// a meter read — transparently forces a shard barrier first, so
// cross-shard interactions always observe fully settled enclosures. The
// hook is how the conservative barrier protocol stays invisible to
// policies: they call the same Array methods as under the serial engine.

package storage

import (
	"fmt"
	"time"

	"esm/internal/trace"
)

// ShardMap assigns each enclosure to one shard, in contiguous balanced
// groups so the assignment is deterministic and cache/migration locality
// within a group is preserved.
type ShardMap struct {
	shardOf []int
	shards  int
}

// NewShardMap splits n enclosures over at most shards groups. The shard
// count is clamped to [1, n].
func NewShardMap(n, shards int) ShardMap {
	if shards < 1 {
		shards = 1
	}
	if shards > n {
		shards = n
	}
	m := ShardMap{shardOf: make([]int, n), shards: shards}
	base := n / shards
	extra := n % shards
	e := 0
	for s := 0; s < shards; s++ {
		size := base
		if s < extra {
			size++
		}
		for i := 0; i < size; i++ {
			m.shardOf[e] = s
			e++
		}
	}
	return m
}

// Shards returns the effective shard count.
func (m ShardMap) Shards() int { return m.shards }

// ShardOf returns the shard owning enclosure e.
func (m ShardMap) ShardOf(e int) int { return m.shardOf[e] }

// SetSyncHook installs the conductor's barrier callback. When non-nil it
// runs at the top of every public array entry point that reads or
// mutates shard-owned enclosure state, so in-flight shard work settles
// before the call proceeds. The serial engine leaves it nil.
func (a *Array) SetSyncHook(fn func()) { a.syncHook = fn }

// syncPoint runs the conductor's barrier callback, if any.
func (a *Array) syncPoint() {
	if a.syncHook != nil {
		a.syncHook()
	}
}

// Plan is the cache-phase outcome of one application I/O, produced by
// PlanSubmit on the conductor. Either the I/O was served by the cache
// (Served) or it must run physically on enclosure Enc at block Block.
type Plan struct {
	// Served reports a cache-resolved I/O; Response and CacheHit then
	// mirror the Result of the serial Submit.
	Served   bool
	Response time.Duration
	CacheHit bool
	// NeedFlush reports that a delayed write pushed the dirty-block rate
	// over the threshold: the caller must run FlushAll next, exactly
	// where the serial Submit destages inline.
	NeedFlush bool
	// Enc and Block locate the physical I/O when not Served.
	Enc   int
	Block int64
	// Read distinguishes the physical read and write paths for
	// admission.
	Read bool
	// Item and the page span, for AdmitPlanned.
	Item                trace.ItemID
	FirstPage, LastPage int64
}

// PlanSubmit runs the cache phase of one application I/O on the
// conductor: preload/LRU/dirty-page hits, write-delay absorption, and
// the physical-target lookup. It performs exactly the conductor-state
// mutations and counter/recorder bookkeeping the serial Submit would,
// in the same order, but executes no enclosure arrival — that part is
// returned as a Plan for ExecPlanned. Only valid on fault-free runs
// (the fault path needs the arrival outcome before counting).
//
// The split is semantics-preserving because on a fault-free run a
// planned physical I/O cannot fail: the serial Submit's post-arrival
// bookkeeping (stats, the physical-I/O counters) is unconditional, so
// hoisting it to plan time changes nothing observable. Cache admission
// is NOT hoisted — the serial engine admits after the physical-observer
// callback (which may replan and re-select the caches), so AdmitPlanned
// replays it at that same point.
func (a *Array) PlanSubmit(rec trace.LogicalRecord) (Plan, error) {
	now := a.clk.Now()
	item := rec.Item
	if int(item) < 0 || int(item) >= len(a.items) || !a.items[item].placed {
		return Plan{}, fmt.Errorf("storage: I/O to unplaced item %d", item)
	}
	firstPage, lastPage, err := a.pageSpan(rec)
	if err != nil {
		return Plan{}, err
	}
	p := Plan{Item: item, FirstPage: firstPage, LastPage: lastPage}

	if rec.Op == trace.OpRead {
		if a.preload.hit(item, now) || a.readCached(item, firstPage, lastPage) {
			a.stats.CacheHits++
			a.rec.CacheHit()
			p.Served, p.Response, p.CacheHit = true, a.cfg.CacheHitTime, true
			return p, nil
		}
		p.Enc, p.Block = a.locate(item, rec.Offset)
		p.Read = true
		a.stats.PhysicalReads++
		a.rec.PhysicalIO(true)
		return p, nil
	}

	// Write path, mirroring Submit: invalidate any pinned preload copy
	// first, then absorb into the write-delay partition when selected.
	a.evictPreload(now, item)
	if a.batteryOK && a.wdelay.selected[item] {
		a.stats.DelayedWrites++
		a.rec.DelayedWrite()
		p.Served, p.Response, p.CacheHit = true, a.cfg.CacheAckTime, true
		p.NeedFlush = a.wdelay.absorb(item, firstPage, lastPage, rec.Size)
		return p, nil
	}
	p.Enc, p.Block = a.locate(item, rec.Offset)
	a.stats.PhysicalWrites++
	a.rec.PhysicalIO(false)
	return p, nil
}

// AdmitPlanned finishes a planned physical I/O's cache admission, at the
// point the serial Submit performs it: after the physical observer has
// run. Reads admit their pages into the general LRU unless the item is
// preload-pinned; writes refresh pages already cached.
func (a *Array) AdmitPlanned(p Plan) {
	if !p.Served {
		a.admit(p.Item, p.FirstPage, p.LastPage, p.Read)
	}
}

// CanDefer reports whether a planned physical I/O to enclosure e may
// run on a shard worker instead of the conductor. The condition is the
// deferral-safety invariant of DESIGN.md §14: with no fault injector,
// and the enclosure powered on with spin-down disabled, an arrival can
// neither fail, nor change the power state, nor emit any event — it
// only advances the enclosure's private accumulators. Everything else
// (possible spin-up, power events, fault draws) must run on the
// conductor in global order.
func (a *Array) CanDefer(e int) bool {
	return a.inj == nil && a.enc[e].on && !a.enc[e].spindownEnabled
}

// DeferredOp is one planned physical application I/O, ready for
// ExecPlanned on the enclosure's owning shard.
type DeferredOp struct {
	At    time.Duration
	Enc   int
	Block int64
	Size  int32
	Read  bool
	Item  trace.ItemID
}

// ExecInfo is the exported arrival phase breakdown, for span
// construction by the engine. Pass nil when tracing is off.
type ExecInfo struct {
	PowerState     string
	SpinUpWait     time.Duration
	QueueWait      time.Duration
	Service        time.Duration
	SpinUpAttempts int
}

// ExecPlanned runs the enclosure physics of one planned I/O and returns
// the response time. It performs no counting, no admission and no
// telemetry — PlanSubmit and the engine own those — so for a deferrable
// op it touches exclusively the target enclosure's state and is safe to
// run on that shard's worker. For a non-deferrable op (possible
// spin-up) it must run on the conductor after a barrier on the owning
// shard; the spin-up's power events then fire in global order exactly
// as under the serial engine.
func (a *Array) ExecPlanned(op DeferredOp, info *ExecInfo) (time.Duration, error) {
	encl := a.enc[op.Enc]
	seq := encl.isSequential(op.Block, op.Size)
	var ai *arrivalInfo
	if info != nil {
		ai = &arrivalInfo{}
	}
	end, err := encl.arrival(op.At, op.Block, op.Size, seq, kindApp, ai)
	if err != nil {
		return 0, err
	}
	if info != nil {
		*info = ExecInfo{
			PowerState:     ai.powerState,
			SpinUpWait:     ai.spinUpWait,
			QueueWait:      ai.queueWait,
			Service:        ai.service,
			SpinUpAttempts: ai.spinUpAttempts,
		}
	}
	return end - op.At, nil
}
