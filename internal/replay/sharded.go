// Sharded open-loop replay: byte-identical parallel execution.
//
// The engine keeps ONE conductor goroutine in charge of everything that
// defines global order — trace consumption, the event queue, the cache
// phase of every I/O, policy callbacks, migrations, telemetry — and
// farms out only the enclosure physics of provably independent I/Os to
// per-shard workers. An I/O may defer exactly when its arrival cannot
// observe or produce any cross-shard effect (storage.CanDefer: no fault
// injector, enclosure on, spin-down disabled); everything else runs on
// the conductor in the serial engine's order.
//
// The conservative barrier protocol has one synchronization primitive:
// syncAll, which flushes the per-shard op batches, waits for every lane
// to drain, merges shard-local response/window aggregates in fixed
// shard order, and replays buffered telemetry spans from the mailbox in
// deterministic (time, seq, shard) order. syncAll runs before any
// cross-shard interaction: it is installed as the array's sync hook (so
// every policy action that touches enclosure state barriers first,
// transparently), and the conductor invokes it before firing any global
// event while deferred work is pending. DESIGN.md §14 documents the
// protocol and its equivalence argument.

package replay

import (
	"fmt"
	"sync"
	"time"

	"esm/internal/metrics"
	"esm/internal/obs"
	"esm/internal/simclock"
	"esm/internal/storage"
	"esm/internal/trace"
)

// shardBatch is how many deferred ops accumulate per shard before the
// conductor ships them as one work item; it bounds per-dispatch
// overhead without holding results back from the next barrier.
const shardBatch = 256

// shardOp is one deferred application I/O plus the bookkeeping a worker
// needs to accumulate response metrics and spans shard-locally.
type shardOp struct {
	// op.At is also the record's trace time (the open loop never shifts
	// records), so window attribution reads it.
	op storage.DeferredOp
	// seq is the op's global sequence number, carried into mailbox
	// messages so buffered spans replay in serial emission order.
	seq uint64
}

// laneState is one shard's private metric accumulators. Workers write
// them between barriers; the conductor merges and clears them at every
// syncAll, in ascending shard order. All fields are counts, sums or
// maxima, so the merge reproduces the serial accumulation exactly.
type laneState struct {
	resp metrics.ResponseStats
	win  []WindowResult
	err  error
}

type shardEngine struct {
	s    *Session
	sq   *simclock.ShardedQueue
	mb   *simclock.Mailbox
	smap storage.ShardMap

	batch [][]shardOp
	lanes []laneState
	// pool recycles batch slices between the conductor and the workers.
	pool sync.Pool
	// dirty is true while any op has been batched or dispatched since
	// the last syncAll. While dirty, workers may be running: the
	// conductor must not read the mailbox (pending() short-circuits on
	// dirty for exactly that reason).
	dirty bool
	seq   uint64
	err   error
}

// newShardEngine starts smap's worker lanes for session s and installs
// the barrier as the array's sync hook, so every policy or management
// action that touches enclosure state barriers transparently.
func newShardEngine(s *Session, smap storage.ShardMap) *shardEngine {
	n := smap.Shards()
	en := &shardEngine{
		s:  s,
		sq: simclock.NewShardedQueue(n), mb: simclock.NewMailbox(n), smap: smap,
		batch: make([][]shardOp, n),
		lanes: make([]laneState, n),
	}
	en.pool.New = func() any {
		b := make([]shardOp, 0, shardBatch)
		return &b
	}
	for i := range en.batch {
		en.batch[i] = make([]shardOp, 0, shardBatch)
	}
	for i := range en.lanes {
		en.lanes[i].win = make([]WindowResult, len(s.r.Windows))
	}
	s.arr.SetSyncHook(en.syncAll)
	return en
}

// close settles every lane, stops the workers and unhooks the array.
// The engine must not be used afterwards.
func (en *shardEngine) close() error {
	en.syncAll()
	en.sq.Close()
	en.s.arr.SetSyncHook(nil)
	return en.err
}

// pending reports whether any deferred work or buffered telemetry is
// outstanding. The dirty check must come first: while dirty, workers
// may still be appending to their mailbox slots, so Pending() is only
// safe to evaluate when dirty is false.
func (en *shardEngine) pending() bool { return en.dirty || en.mb.Pending() }

// runGlobalUntil dispatches every pending global event up to limit and
// advances the conductor clock, like EventQueue.RunUntil — but with a
// barrier before each event while deferred work is outstanding: events
// (power samples, migration chunks, policy wakes, battery windows)
// touch enclosure and aggregate state, so they must observe fully
// settled shards.
func (en *shardEngine) runGlobalUntil(limit time.Duration) {
	for {
		at, ok := en.s.evq.PeekTime()
		if !ok || at > limit {
			break
		}
		if en.pending() {
			en.syncAll()
		}
		e := en.s.evq.Pop()
		en.s.clk.Advance(e.At)
		e.Fire(e.At)
		en.s.evq.Release(e)
	}
	en.s.clk.Advance(limit)
}

// step replays one fault-free record: plan the cache phase on the
// conductor, defer or execute the enclosure physics, then deliver the
// physical observation and cache admission at the serial engine's
// points.
func (en *shardEngine) step(rec trace.LogicalRecord) error {
	en.s.pol.OnLogical(rec)
	now := en.s.clk.Now()
	plan, err := en.s.arr.PlanSubmit(rec)
	if err != nil {
		return fmt.Errorf("replay: %w", err)
	}
	en.seq++

	if plan.Served {
		en.s.res.Resp.Add(rec.Op, plan.Response)
		if rec.Op == trace.OpRead {
			en.s.addWindows(en.s.res.Windows, rec.Time, plan.Response)
		}
		if en.s.r.Telemetry.Tracer != nil {
			en.emitCacheHit(now, plan, rec.Op == trace.OpRead)
		}
		if plan.NeedFlush {
			// The serial Submit destages inline at this point; FlushAll
			// barriers first via the sync hook, then destages.
			en.s.arr.FlushAll()
		}
		return nil
	}

	dop := storage.DeferredOp{
		At: now, Enc: plan.Enc, Block: plan.Block,
		Size: rec.Size, Read: plan.Read, Item: plan.Item,
	}
	sh := en.smap.ShardOf(plan.Enc)
	deferred := en.s.arr.CanDefer(plan.Enc)
	var resp time.Duration
	var info *storage.ExecInfo
	if deferred {
		en.batch[sh] = append(en.batch[sh], shardOp{op: dop, seq: en.seq})
		en.dirty = true
		if len(en.batch[sh]) >= shardBatch {
			en.flushShard(sh)
		}
	} else {
		// A possible power transition must run on the conductor in
		// global order, with every shard settled first.
		if en.pending() {
			en.syncAll()
		}
		if en.s.r.Telemetry.Tracer != nil {
			info = &storage.ExecInfo{}
		}
		resp, err = en.s.arr.ExecPlanned(dop, info)
		if err != nil {
			return fmt.Errorf("replay: %w", err)
		}
		if en.s.r.Telemetry.Tracer != nil {
			en.s.r.Telemetry.Tracer.Service(dop.Enc, int64(dop.Item), obs.FnServing, info.Service)
			if info.SpinUpAttempts > 0 {
				en.s.r.Telemetry.Tracer.SpinUps(dop.Enc, int64(dop.Item), obs.FnServing, info.SpinUpAttempts)
			}
		}
	}

	// The physical observation (storage monitor + policy) is delivered
	// in record order, before admission, exactly as the serial Submit
	// does. If the policy reacts by touching enclosure state, the sync
	// hook barriers first, so a just-batched op completes before the
	// reaction — the serial order.
	en.s.observePhysical(trace.PhysicalRecord{
		Time: now, Enclosure: int32(plan.Enc), Block: plan.Block,
		Size: rec.Size, Op: rec.Op,
	})
	if !deferred && en.s.r.Telemetry.Tracer != nil {
		en.emitIO(now, dop, resp, info)
	}
	en.s.arr.AdmitPlanned(plan)
	if !deferred {
		en.s.res.Resp.Add(rec.Op, resp)
		if rec.Op == trace.OpRead {
			en.s.addWindows(en.s.res.Windows, rec.Time, resp)
		}
	}
	return nil
}

// emitCacheHit records a cache-resolved I/O's span. While deferred work
// or buffered spans are outstanding, the span is posted to the mailbox
// (conductor slot, this op's seq) so the sink still sees spans in
// serial emission order.
func (en *shardEngine) emitCacheHit(now time.Duration, plan storage.Plan, read bool) {
	sp := obs.IOSpan{
		Start: now, Response: plan.Response,
		Item: int64(plan.Item), Enclosure: -1, Read: read,
		Cause: obs.IOCacheHit,
	}
	if en.pending() {
		en.mb.Post(-1, simclock.Message{At: now, Seq: en.seq, Fire: func() { en.s.r.Telemetry.Tracer.IO(sp) }})
	} else {
		en.s.r.Telemetry.Tracer.IO(sp)
	}
}

// emitIO records the span of a conductor-executed physical I/O, after
// the physical observer has run (the serial emission point).
func (en *shardEngine) emitIO(now time.Duration, dop storage.DeferredOp, resp time.Duration, info *storage.ExecInfo) {
	cause := obs.IODiskOn
	if info.SpinUpWait > 0 {
		cause = obs.IOSpinUpBlocked
	}
	en.s.r.Telemetry.Tracer.IO(obs.IOSpan{
		Start: now, Response: resp,
		Item: int64(dop.Item), Enclosure: dop.Enc, Read: dop.Read,
		PowerState: info.PowerState, Cause: cause,
		SpinUpWait: info.SpinUpWait, QueueWait: info.QueueWait, Service: info.Service,
	})
}

// flushShard ships shard s's batched ops to its lane. The worker runs
// each op's enclosure physics at the op's own timestamp, accumulates
// response and window aggregates into the shard's laneState, and (when
// tracing) posts the op's spans to the mailbox keyed by its global seq.
func (en *shardEngine) flushShard(s int) {
	ops := en.batch[s]
	if len(ops) == 0 {
		return
	}
	next := en.pool.Get().(*[]shardOp)
	en.batch[s] = (*next)[:0]
	lane := &en.lanes[s]
	en.sq.Dispatch(s, func(clk *simclock.Clock) {
		for i := range ops {
			o := &ops[i]
			if clk.Now() < o.op.At {
				clk.Advance(o.op.At)
			}
			var info *storage.ExecInfo
			if en.s.r.Telemetry.Tracer != nil {
				info = &storage.ExecInfo{}
			}
			resp, err := en.s.arr.ExecPlanned(o.op, info)
			if err != nil {
				// Impossible for a deferrable op (no injector, enclosure
				// on); surfaced at the next barrier just in case.
				if lane.err == nil {
					lane.err = err
				}
				return
			}
			op := trace.OpWrite
			if o.op.Read {
				op = trace.OpRead
			}
			lane.resp.Add(op, resp)
			if o.op.Read {
				en.s.addWindows(lane.win, o.op.At, resp)
			}
			if en.s.r.Telemetry.Tracer != nil {
				enc, item, svc := o.op.Enc, int64(o.op.Item), info.Service
				en.mb.Post(s, simclock.Message{At: o.op.At, Seq: o.seq, Fire: func() {
					en.s.r.Telemetry.Tracer.Service(enc, item, obs.FnServing, svc)
				}})
				sp := obs.IOSpan{
					Start: o.op.At, Response: resp,
					Item: item, Enclosure: enc, Read: o.op.Read,
					PowerState: info.PowerState, Cause: obs.IODiskOn,
					QueueWait: info.QueueWait, Service: info.Service,
				}
				en.mb.Post(s, simclock.Message{At: o.op.At, Seq: o.seq, Fire: func() {
					en.s.r.Telemetry.Tracer.IO(sp)
				}})
			}
		}
		ops = ops[:0]
		en.pool.Put(&ops)
	})
}

// syncAll is the conservative barrier: flush every batch, wait for all
// lanes, advance lane clocks to global time, merge shard aggregates in
// fixed shard order, and replay buffered spans in (time, seq, shard)
// order. It is idempotent and cheap when nothing is outstanding, and it
// is the array's sync hook — every policy action that touches enclosure
// state funnels through here before proceeding.
func (en *shardEngine) syncAll() {
	for s := range en.batch {
		en.flushShard(s)
	}
	en.sq.Barrier()
	en.sq.AdvanceAll(en.s.clk.Now())
	for s := range en.lanes {
		l := &en.lanes[s]
		if l.err != nil && en.err == nil {
			en.err = l.err
		}
		en.s.res.Resp.Merge(&l.resp)
		l.resp = metrics.ResponseStats{}
		for wi := range l.win {
			out := &en.s.res.Windows[wi]
			out.Reads += l.win[wi].Reads
			out.ReadSum += l.win[wi].ReadSum
			l.win[wi] = WindowResult{}
		}
	}
	en.mb.Drain()
	en.dirty = false
}
