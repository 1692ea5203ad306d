// Array is the simulated storage unit: the facade the replay engine and
// the power-saving policies talk to.

package storage

import (
	"fmt"
	"time"

	"esm/internal/faults"
	"esm/internal/obs"
	"esm/internal/powermodel"
	"esm/internal/simclock"
	"esm/internal/trace"
)

// FaultError reports an I/O or migration abandoned because an injected
// fault left its enclosure unavailable.
type FaultError struct {
	// Enclosure is the enclosure that could not be reached.
	Enclosure int
	// Op is the operation the fault interrupted ("spin-up").
	Op string
}

func (e *FaultError) Error() string {
	return fmt.Sprintf("storage: enclosure %d unavailable (%s failed)", e.Enclosure, e.Op)
}

// Result describes the outcome of one application I/O.
type Result struct {
	// Response is the application-observed response time, including
	// spin-up waits and queueing delay for physical I/Os.
	Response time.Duration
	// CacheHit reports whether the I/O was served entirely from cache.
	CacheHit bool
	// Enclosure is the enclosure that served a physical I/O, or -1.
	Enclosure int
}

// Stats aggregates array-level counters.
type Stats struct {
	PhysicalReads     int64
	PhysicalWrites    int64
	CacheHits         int64
	DelayedWrites     int64
	MigratedBytes     int64
	Migrations        int64
	MigrationsSkipped int64
	MigrationsFailed  int64
	FlushedBytes      int64
	PreloadedBytes    int64
}

// ExtentRef identifies one extent of a data item.
type ExtentRef struct {
	Item   trace.ItemID
	Extent int64
}

type extentLoc struct {
	enc  int
	base int64
}

// itemState is everything the array keeps per data item, indexed by
// ItemID: its home, and its state in the two per-item cache functions.
type itemState struct {
	placed bool
	enc    int
	base   int64
	size   int64

	// pinned marks the item selected for preload (§V-C); its reads hit
	// the cache from loadedAt, when the bulk read completes.
	pinned   bool
	loadedAt time.Duration
	// delayed marks the item selected for write delay (§V-B). dirtyBytes
	// sums the sizes of its absorbed writes awaiting destage, and
	// dirtyPages holds their pages, so reads of fresh data hit the cache.
	delayed    bool
	dirtyBytes int64
	dirtyPages map[int64]struct{}
}

// segment maps a block range of an enclosure back to the data item living
// there, for physical-to-logical resolution (used by DDR).
type segment struct {
	base   int64
	size   int64
	item   trace.ItemID
	extent int64 // -1 for a whole-item segment
}

type migration struct {
	item trace.ItemID
	dst  int
	// base is the destination block address, reserved when the copy
	// starts so interleaved allocations cannot shift it under the
	// in-flight chunks.
	base   int64
	offset int64
	// done, if non-nil, runs exactly once: when the copy completes, or
	// when the migration is skipped, dropped or abandoned on a fault.
	done func()
	// startedAt is when the copy began, for the tracer's migration span.
	startedAt time.Duration
}

// Array simulates the storage unit.
type Array struct {
	cfg  Config
	clk  *simclock.Clock
	evq  *simclock.EventQueue
	cat  *trace.Catalog
	mtr  *powermodel.Meter
	enc  []*enclosure
	segs [][]segment

	items   []itemState
	extents map[ExtentRef]extentLoc

	general *lru
	preload *preloadState
	wdelay  *writeDelayState

	stats Stats

	physObs  func(rec trace.PhysicalRecord)
	powerObs func(enc int, at time.Duration, on bool)
	// tel is the run's telemetry of SetTelemetry: the decision log's
	// sinks and the span tracer. The zero value (the default) disables
	// every surface at the cost of one nil check per call site.
	tel obs.Telemetry

	// inj injects faults; nil (the default) injects nothing. faultObs,
	// when non-nil, observes every injected fault (policies hook it to
	// react to fault load). batteryOK is false while the cache battery
	// is lost: the write-delay and preload functions are disabled.
	inj       *faults.Injector
	faultObs  func(ev faults.Event)
	batteryOK bool

	migQueue  []*migration
	migActive bool
}

// New builds an array. The clock and event queue are shared with the
// replay engine so migrations and application I/O interleave on one
// virtual timeline.
func New(cfg Config, clk *simclock.Clock, evq *simclock.EventQueue, cat *trace.Catalog) (*Array, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	a := &Array{
		cfg:       cfg,
		clk:       clk,
		evq:       evq,
		cat:       cat,
		mtr:       powermodel.NewMeter(cfg.Power, cfg.Enclosures),
		enc:       make([]*enclosure, cfg.Enclosures),
		segs:      make([][]segment, cfg.Enclosures),
		items:     make([]itemState, cat.Len()),
		extents:   make(map[ExtentRef]extentLoc),
		general:   newLRU(cfg.generalCacheBytes(), cfg.CachePageBytes),
		preload:   &preloadState{capBytes: cfg.PreloadCacheBytes},
		wdelay:    &writeDelayState{capBytes: cfg.WriteDelayCacheBytes, rate: cfg.DirtyBlockRate},
		batteryOK: true,
	}
	for i := range a.enc {
		a.enc[i] = newEnclosure(i, &a.cfg)
		a.enc[i].acc = a.mtr.Enclosure(i)
		a.enc[i].powerEvent = a.onPowerEvent
	}
	return a, nil
}

func (a *Array) onPowerEvent(enc int, at time.Duration, on bool, cause obs.Cause) {
	if a.powerObs != nil {
		a.powerObs(enc, at, on)
	}
	if !a.tel.Logging() {
		return
	}
	if on {
		// A power-on is a spin-up transition followed by service
		// readiness SpinUpTime later.
		a.tel.Recorder.Log(at, obs.Event{Type: obs.EvPowerOn, Power: &obs.PowerEvent{Enclosure: enc, State: "spinup", Cause: cause}})
		a.tel.Recorder.Log(at+a.cfg.Power.SpinUpTime, obs.Event{Type: obs.EvPowerOn, Power: &obs.PowerEvent{Enclosure: enc, State: "on", Cause: cause}})
	} else {
		a.tel.Recorder.Log(at, obs.Event{Type: obs.EvPowerOff, Power: &obs.PowerEvent{Enclosure: enc, State: "off", Cause: cause}})
	}
}

// SetPhysicalObserver installs a callback invoked for every physical I/O
// issued to an enclosure (application, migration, flush and preload
// traffic alike). It feeds the storage monitor.
func (a *Array) SetPhysicalObserver(fn func(rec trace.PhysicalRecord)) { a.physObs = fn }

// SetPowerObserver installs a callback invoked on every enclosure
// power-state transition.
func (a *Array) SetPowerObserver(fn func(enc int, at time.Duration, on bool)) { a.powerObs = fn }

// SetTelemetry attaches the array's telemetry surfaces: the decision
// log, to which the array reports power transitions, migrations,
// cache-function changes and faults, and the span tracer (the array
// feeds no flight samples and no alerts). The zero Telemetry (the
// default) keeps the hot path at one nil check per call site. Call it
// before placement so the tracer's residency feed sees every item land.
func (a *Array) SetTelemetry(t obs.Telemetry) { a.tel = t }

// EnclosureEnergies reads every enclosure's integrated joules by power
// state, the attribution ledger's input. Call Finish (or otherwise
// sync the enclosures) first so the reading covers the full timeline.
func (a *Array) EnclosureEnergies() []obs.EnclosureEnergy {
	out := make([]obs.EnclosureEnergy, len(a.enc))
	for e := range out {
		acc := a.mtr.Enclosure(e)
		out[e] = obs.EnclosureEnergy{
			ActiveJ: acc.StateEnergyJ(powermodel.Active),
			IdleJ:   acc.StateEnergyJ(powermodel.Idle),
			OffJ:    acc.StateEnergyJ(powermodel.Off),
			SpinUpJ: acc.StateEnergyJ(powermodel.SpinUp),
		}
	}
	return out
}

// SetFaultInjector attaches a fault injector. A nil injector (the
// default) keeps every path fault-free. The array reports each injected
// fault to the telemetry recorder and the fault observer, and schedules
// the injector's cache-battery loss window on the event queue. Call it
// once, before replay starts.
func (a *Array) SetFaultInjector(inj *faults.Injector) {
	a.inj = inj
	for _, e := range a.enc {
		e.inj = inj
	}
	if inj == nil {
		return
	}
	inj.SetObserver(func(ev faults.Event) {
		if a.tel.Logging() {
			a.tel.Recorder.Log(ev.T, obs.Event{Type: obs.EvFault, Fault: &obs.FaultEvent{
				Kind:      string(ev.Kind),
				Enclosure: ev.Enclosure,
				Attempt:   ev.Attempt,
			}})
		}
		if a.faultObs != nil {
			a.faultObs(ev)
		}
	})
	if fail, recover, ok := inj.BatteryWindow(); ok {
		a.evq.Schedule(fail, a.batteryFail)
		if recover > 0 {
			a.evq.Schedule(recover, a.batteryRecover)
		}
	}
}

// FaultInjector returns the attached injector (nil when off).
func (a *Array) FaultInjector() *faults.Injector { return a.inj }

// SetFaultObserver installs a callback invoked for every injected
// fault, in simulation order. Policies hook it to count fault load.
func (a *Array) SetFaultObserver(fn func(ev faults.Event)) { a.faultObs = fn }

// BatteryOK reports whether the cache battery is healthy. While it is
// not, the write-delay and preload functions are disabled.
func (a *Array) BatteryOK() bool { return a.batteryOK }

// batteryFail loses the cache battery: dirty delayed writes destage
// immediately, every item leaves both cache functions (logged in ItemID
// order), and the functions stay disabled until batteryRecover.
func (a *Array) batteryFail(now time.Duration) {
	if !a.batteryOK {
		return
	}
	a.batteryOK = false
	a.inj.BatteryFailed(now)
	a.flushWriteDelay(now)
	var delayed, pinned []int64
	for id := range a.items {
		st := &a.items[id]
		if st.delayed {
			st.delayed = false
			delayed = append(delayed, int64(id))
		}
		if st.pinned {
			st.pinned = false
			a.preload.release(st.size)
			pinned = append(pinned, int64(id))
		}
	}
	if len(delayed) > 0 {
		a.logCache(now, obs.EvCacheEvict, "write-delay", delayed)
	}
	if len(pinned) > 0 {
		a.logCache(now, obs.EvCacheEvict, "preload", pinned)
	}
}

// batteryRecover restores the cache battery. The cache functions come
// back at the policy's next determination, which re-selects items.
func (a *Array) batteryRecover(now time.Duration) {
	if a.batteryOK {
		return
	}
	a.batteryOK = true
	a.inj.BatteryRecovered(now)
}

// CacheOccupancy is a point-in-time snapshot of the three cache
// partitions, for status reporting.
type CacheOccupancy struct {
	// GeneralPages and GeneralCapPages are the general read LRU's
	// occupancy and capacity in pages.
	GeneralPages    int `json:"general_pages"`
	GeneralCapPages int `json:"general_cap_pages"`
	// PreloadUsedBytes of PreloadCapBytes are pinned by preloaded items.
	PreloadUsedBytes int64 `json:"preload_used_bytes"`
	PreloadCapBytes  int64 `json:"preload_cap_bytes"`
	// WriteDelayDirtyBytes of WriteDelayCapBytes are dirty delayed
	// writes awaiting destage.
	WriteDelayDirtyBytes int64 `json:"write_delay_dirty_bytes"`
	WriteDelayCapBytes   int64 `json:"write_delay_cap_bytes"`
}

// CacheOccupancy returns the current cache partition usage.
func (a *Array) CacheOccupancy() CacheOccupancy {
	return CacheOccupancy{
		GeneralPages:         a.general.len(),
		GeneralCapPages:      a.general.capPages,
		PreloadUsedBytes:     a.preload.usedBytes,
		PreloadCapBytes:      a.preload.capBytes,
		WriteDelayDirtyBytes: a.wdelay.totalDirty,
		WriteDelayCapBytes:   a.wdelay.capBytes,
	}
}

// Meter returns the power meter.
func (a *Array) Meter() *powermodel.Meter {
	return a.mtr
}

// Stats returns a snapshot of the array counters.
func (a *Array) Stats() Stats { return a.stats }

// Enclosures returns the enclosure count.
func (a *Array) Enclosures() int { return len(a.enc) }

// Capacity returns the per-enclosure capacity in bytes.
func (a *Array) Capacity() int64 { return a.cfg.EnclosureCapacity }

// Used returns the bytes allocated on enclosure e.
func (a *Array) Used(e int) int64 { return a.enc[e].used }

// EnclosureOn reports whether enclosure e is spun up at time now.
func (a *Array) EnclosureOn(e int, now time.Duration) bool {
	a.enc[e].sync(now)
	return a.enc[e].on
}

// IdleSince returns the start of enclosure e's current idle period; ok is
// false when the enclosure is busy or powered off.
func (a *Array) IdleSince(e int, now time.Duration) (time.Duration, bool) {
	a.enc[e].sync(now)
	return a.enc[e].idleSince(now)
}

// SpinDownEnabled reports whether power-off is enabled for enclosure e.
func (a *Array) SpinDownEnabled(e int) bool { return a.enc[e].spindownEnabled }

// SetSpinDownEnabled enables or disables the power-off function for one
// enclosure. Policies call this to mark cold enclosures.
func (a *Array) SetSpinDownEnabled(e int, enabled bool) {
	a.enc[e].setSpinDown(a.clk.Now(), enabled)
}

// Place assigns item its initial location on enclosure e. Every item must
// be placed exactly once, before replay starts.
func (a *Array) Place(item trace.ItemID, e int) error {
	st := &a.items[item]
	if st.placed {
		return fmt.Errorf("storage: item %q placed twice", a.cat.Name(item))
	}
	if e < 0 || e >= len(a.enc) {
		return fmt.Errorf("storage: enclosure %d out of range", e)
	}
	size := a.cat.Size(item)
	if a.enc[e].used+size > a.cfg.EnclosureCapacity {
		return fmt.Errorf("storage: enclosure %d over capacity placing %q", e, a.cat.Name(item))
	}
	base := a.enc[e].alloc(size)
	*st = itemState{placed: true, enc: e, base: base, size: size}
	a.segs[e] = append(a.segs[e], segment{base: base, size: size, item: item, extent: -1})
	a.tel.Tracer.Residency(a.clk.Now(), e, int64(item), size)
	return nil
}

// ItemEnclosure returns the home enclosure of item.
func (a *Array) ItemEnclosure(item trace.ItemID) int { return a.items[item].enc }

// ItemSize returns the size of item in bytes.
func (a *Array) ItemSize(item trace.ItemID) int64 { return a.items[item].size }

// locate returns the physical location of a byte offset within item,
// honouring extent overrides.
func (a *Array) locate(item trace.ItemID, offset int64) (enc int, block int64) {
	st := &a.items[item]
	if len(a.extents) > 0 {
		ext := offset / a.cfg.ExtentBytes
		if loc, ok := a.extents[ExtentRef{item, ext}]; ok {
			return loc.enc, loc.base + offset%a.cfg.ExtentBytes
		}
	}
	return st.enc, st.base + offset
}

// ResolveExtent maps a physical (enclosure, block) back to the data-item
// extent living there. It lets physical-level policies (DDR) select
// migration units without application knowledge.
func (a *Array) ResolveExtent(e int, block int64) (ExtentRef, bool) {
	for i := range a.segs[e] {
		s := &a.segs[e][i]
		if block >= s.base && block < s.base+s.size {
			if s.extent >= 0 {
				return ExtentRef{s.item, s.extent}, true
			}
			return ExtentRef{s.item, (block - s.base) / a.cfg.ExtentBytes}, true
		}
	}
	return ExtentRef{}, false
}

// physical issues one physical I/O and returns its completion time.
// kind attributes any spin-up the I/O provokes; item is the data item
// the transfer belongs to (for energy attribution). With a live
// tracer, management I/O feeds the ledger here, and an application I/O
// records its span last, which feeds the ledger too. On a *FaultError
// the I/O never ran: nothing is counted or observed.
func (a *Array) physical(now time.Duration, e int, block int64, size int32, op trace.Op, forceSeq bool, kind ioKind, item trace.ItemID) (time.Duration, error) {
	encl := a.enc[e]
	seq := encl.isSequential(block, size) || forceSeq
	var info arrivalInfo
	end, err := encl.arrival(now, block, size, seq, kind, &info)
	if err != nil {
		return 0, err
	}
	if a.tel.Tracer != nil && kind != kindApp {
		a.tel.Tracer.Service(e, int64(item), kind.fn(), info.service, info.spinUpAttempts)
	}
	if op == trace.OpRead {
		a.stats.PhysicalReads++
	} else {
		a.stats.PhysicalWrites++
	}
	a.tel.Recorder.PhysicalIO(op == trace.OpRead)
	if a.physObs != nil {
		a.physObs(trace.PhysicalRecord{
			Time:      now,
			Enclosure: int32(e),
			Block:     block,
			Size:      size,
			Op:        op,
		})
	}
	if a.tel.Tracer != nil && kind == kindApp {
		a.tracePhysical(now, end, item, e, op == trace.OpRead, &info)
	}
	return end, nil
}

// Submit executes one application I/O at the current virtual time. An
// I/O to an unplaced item is an error; a *FaultError means an injected
// fault left the item's enclosure unavailable and the I/O failed (it
// consumed no service capacity and must not enter response metrics).
func (a *Array) Submit(rec trace.LogicalRecord) (Result, error) {
	now := a.clk.Now()
	item := rec.Item
	if int(item) < 0 || int(item) >= len(a.items) || !a.items[item].placed {
		return Result{Enclosure: -1}, fmt.Errorf("storage: I/O to unplaced item %d", item)
	}
	firstPage, lastPage, err := a.pageSpan(rec)
	if err != nil {
		return Result{Enclosure: -1}, err
	}
	st := &a.items[item]

	read := rec.Op == trace.OpRead
	op := trace.OpRead
	if read {
		// A read of a pinned preload copy, or of pages all in the
		// general LRU, is a cache hit.
		if st.pinned && now >= st.loadedAt || a.readCached(item, firstPage, lastPage) {
			a.stats.CacheHits++
			a.tel.Recorder.CacheHit()
			if a.tel.Tracer != nil {
				a.traceCacheHit(now, item, true, a.cfg.CacheHitTime)
			}
			return Result{Response: a.cfg.CacheHitTime, CacheHit: true, Enclosure: -1}, nil
		}
	} else {
		// A write invalidates any pinned preload copy first: the fresh
		// data lands on disk or in the write-delay partition, and the
		// stale pinned copy must not serve later reads.
		op = trace.OpWrite
		a.evictPreload(now, item)
		if a.batteryOK && st.delayed {
			a.stats.DelayedWrites++
			a.tel.Recorder.DelayedWrite()
			if a.tel.Tracer != nil {
				a.traceCacheHit(now, item, false, a.cfg.CacheAckTime)
			}
			if a.wdelay.absorb(st, firstPage, lastPage, rec.Size) {
				a.flushWriteDelay(now)
			}
			return Result{Response: a.cfg.CacheAckTime, CacheHit: true, Enclosure: -1}, nil
		}
	}
	e, block := a.locate(item, rec.Offset)
	end, err := a.physical(now, e, block, rec.Size, op, false, kindApp, item)
	if err != nil {
		a.inj.CountFailedAppIO()
		return Result{Enclosure: e}, err
	}
	a.admit(item, firstPage, lastPage, read)
	return Result{Response: end - now, Enclosure: e}, nil
}

// pageSpan returns the first and last cache page an I/O touches. The
// general LRU's packed key holds page indexes in [0, 2^32) only, so an
// I/O at a negative offset or reaching past that range is rejected
// rather than aliased onto another page.
func (a *Array) pageSpan(rec trace.LogicalRecord) (first, last int64, err error) {
	first = rec.Offset / a.cfg.CachePageBytes
	last = first
	if rec.Size > 0 {
		last = (rec.Offset + int64(rec.Size) - 1) / a.cfg.CachePageBytes
	}
	if rec.Offset < 0 || last < first || last >= 1<<32 {
		return 0, 0, fmt.Errorf("storage: I/O to item %d at offset %d outside the cache page range", rec.Item, rec.Offset)
	}
	return first, last, nil
}

// admit updates the general LRU after a physically served I/O, at the
// point the serial Submit reaches once the physical observer has run: a
// read caches its pages unless the item is preload-pinned, and a write
// refreshes the recency of those of its pages already cached.
func (a *Array) admit(item trace.ItemID, first, last int64, read bool) {
	if read && a.items[item].pinned {
		return
	}
	for p := first; p <= last; p++ {
		if read {
			a.general.insert(pageKey(item, p))
		} else {
			a.general.contains(pageKey(item, p))
		}
	}
}

// traceCacheHit records the span of a cache-resolved application I/O.
// Callers check for a tracer first, so the untraced path stays one
// inlined nil check.
func (a *Array) traceCacheHit(now time.Duration, item trace.ItemID, read bool, resp time.Duration) {
	a.tel.Tracer.IO(obs.IOSpan{
		Start: now, Response: resp,
		Item: int64(item), Enclosure: -1, Read: read,
		Cause: obs.IOCacheHit,
	}, 0)
}

// tracePhysical records the span of a physically served application
// I/O from its captured arrival breakdown.
func (a *Array) tracePhysical(now, end time.Duration, item trace.ItemID, e int, read bool, info *arrivalInfo) {
	cause := obs.IODiskOn
	if info.spinUpWait > 0 {
		cause = obs.IOSpinUpBlocked
	}
	a.tel.Tracer.IO(obs.IOSpan{
		Start: now, Response: end - now,
		Item: int64(item), Enclosure: e, Read: read,
		PowerState: info.powerState, Cause: cause,
		SpinUpWait: info.spinUpWait, QueueWait: info.queueWait, Service: info.service,
	}, info.spinUpAttempts)
}

// evictPreload drops item's pinned preload copy, if any, releasing its
// partition budget.
func (a *Array) evictPreload(now time.Duration, item trace.ItemID) {
	st := &a.items[item]
	if !st.pinned {
		return
	}
	st.pinned = false
	a.preload.release(st.size)
	// Guarded here: the one-item list would allocate even with the
	// decision log off.
	if a.tel.Logging() {
		a.logCache(now, obs.EvCacheEvict, "preload", []int64{int64(item)})
	}
}

// logCache records one cache-function selection change (typ is
// EvCacheSelect or EvCacheEvict) in the decision log. Callers that
// must build items first guard on a.tel.Logging().
func (a *Array) logCache(now time.Duration, typ obs.EventType, function string, items []int64) {
	if a.tel.Logging() {
		a.tel.Recorder.Log(now, obs.Event{Type: typ, Cache: &obs.CacheEvent{Function: function, Items: items}})
	}
}

// readCached reports whether every page of the read is available in the
// general LRU or among write-delay dirty pages.
func (a *Array) readCached(item trace.ItemID, firstPage, lastPage int64) bool {
	dirty := a.items[item].dirtyPages
	for p := firstPage; p <= lastPage; p++ {
		if a.general.contains(pageKey(item, p)) {
			continue
		}
		if _, ok := dirty[p]; ok {
			continue
		}
		return false
	}
	return true
}

// chunked issues a bulk transfer as a series of physical I/Os of at most
// chunk bytes, all submitted at time now (they serialise in the enclosure
// queue). It returns the completion time of the last chunk. The transfer
// aborts on the first faulted chunk (in practice only the first can
// fault: once the enclosure is up, later chunks cannot hit a spin-up
// failure).
func (a *Array) chunked(now time.Duration, e int, base, size int64, chunk int64, op trace.Op, kind ioKind, item trace.ItemID) (time.Duration, error) {
	var end time.Duration
	for off := int64(0); off < size; off += chunk {
		n := chunk
		if size-off < n {
			n = size - off
		}
		var err error
		end, err = a.physical(now, e, base+off, int32(n), op, true, kind, item)
		if err != nil {
			return 0, err
		}
	}
	return end, nil
}

// flushWriteDelay destages every dirty item in one go, in ItemID order
// (the paper's bulk write when the dirty-block rate is reached).
func (a *Array) flushWriteDelay(now time.Duration) {
	for id := range a.items {
		a.flushItem(now, trace.ItemID(id))
	}
}

// flushItem destages the dirty bytes of one item to its home enclosure.
// When the enclosure is unavailable the data stays dirty in the cache;
// a later destage retries it.
func (a *Array) flushItem(now time.Duration, item trace.ItemID) {
	st := &a.items[item]
	n := st.dirtyBytes
	if n == 0 {
		return
	}
	end, err := a.chunked(now, st.enc, st.base, n, 256<<20, trace.OpWrite, kindFlush, item)
	if err != nil {
		a.inj.CountFailedFlush()
		return
	}
	if a.tel.Tracer != nil {
		a.tel.Tracer.Management(obs.ManagementSpan{
			Kind: "destage", Start: now, End: end,
			Item: int64(item), Enclosure: st.enc, Dst: -1, Bytes: n,
		})
	}
	a.wdelay.clearItem(st)
	a.stats.FlushedBytes += n
}

// SetWriteDelay replaces the set of write-delay-applied items. Items that
// leave the set have their dirty data destaged immediately (§V-B). While
// the cache battery is lost the selection is forced empty: delaying
// writes without battery backing would risk data loss.
func (a *Array) SetWriteDelay(items []trace.ItemID) {
	if !a.batteryOK {
		items = nil
	}
	now := a.clk.Now()
	next := make([]bool, len(a.items))
	for _, it := range items {
		next[it] = true
	}
	// Walking the items in ItemID order fixes the order leaving items
	// destage in, and with it the enclosure queueing and the run's
	// energy.
	var evicted, added []int64
	for id := range a.items {
		switch st := &a.items[id]; {
		case st.delayed && !next[id]:
			a.flushItem(now, trace.ItemID(id))
			evicted = append(evicted, int64(id))
		case !st.delayed && next[id]:
			added = append(added, int64(id))
		}
	}
	for id := range a.items {
		a.items[id].delayed = next[id]
	}
	a.logCache(now, obs.EvCacheEvict, "write-delay", evicted)
	a.logCache(now, obs.EvCacheSelect, "write-delay", added)
}

// WriteDelayed reports whether item is currently write-delay applied.
func (a *Array) WriteDelayed(item trace.ItemID) bool { return a.items[item].delayed }

// SetPreload replaces the set of preloaded items (§V-C): items no longer
// selected are evicted, newly selected items are loaded from their
// enclosures with bulk sequential reads, and already-loaded items are
// kept. The list is priority-ordered: the partition budget is granted in
// list order, so a previously pinned item that no longer fits behind
// higher-priority selections is evicted rather than squatting on the
// budget forever. While the cache battery is lost the selection is
// forced empty.
func (a *Array) SetPreload(items []trace.ItemID) {
	if !a.batteryOK {
		items = nil
	}
	now := a.clk.Now()
	keep := make([]bool, len(a.items))
	var used int64
	var toLoad []trace.ItemID
	for _, it := range items {
		if keep[it] {
			continue
		}
		st := &a.items[it]
		if used+st.size > a.preload.capBytes {
			continue
		}
		keep[it] = true
		used += st.size
		if !st.pinned {
			toLoad = append(toLoad, it)
		}
	}
	var evicted []int64
	for id := range a.items {
		if st := &a.items[id]; st.pinned && !keep[id] {
			st.pinned = false
			evicted = append(evicted, int64(id))
		}
	}
	a.logCache(now, obs.EvCacheEvict, "preload", evicted)
	a.preload.usedBytes = used
	var loaded []int64
	for _, it := range toLoad {
		st := &a.items[it]
		end, err := a.chunked(now, st.enc, st.base, st.size, 256<<20, trace.OpRead, kindPreload, it)
		if err != nil {
			// The bulk read could not run; the item is not pinned and its
			// budget is released.
			a.inj.CountFailedPreload()
			a.preload.usedBytes -= st.size
			continue
		}
		st.pinned, st.loadedAt = true, end
		a.stats.PreloadedBytes += st.size
		if a.tel.Tracer != nil {
			a.tel.Tracer.Management(obs.ManagementSpan{
				Kind: "preload", Start: now, End: end,
				Item: int64(it), Enclosure: st.enc, Dst: -1, Bytes: st.size,
			})
		}
		if a.tel.Logging() {
			loaded = append(loaded, int64(it))
		}
	}
	a.logCache(now, obs.EvCacheSelect, "preload", loaded)
}

// Preloaded reports whether item is pinned in the preload partition.
func (a *Array) Preloaded(item trace.ItemID) bool { return a.items[item].pinned }

// MigrateItem queues an online migration of item to enclosure dst.
// Migrations are throttled to MigrationBps and run one at a time, in
// submission order (§V-A): spills from hot enclosures run before the P3
// moves whose space they create. The destination capacity check therefore
// happens when the migration starts, not when it is queued; a migration
// whose destination is still full at start time is dropped and counted in
// Stats.MigrationsSkipped. done, if non-nil, runs when the copy finishes.
func (a *Array) MigrateItem(item trace.ItemID, dst int, done func()) error {
	st := &a.items[item]
	if !st.placed {
		return fmt.Errorf("storage: migrating unplaced item %d", item)
	}
	if dst < 0 || dst >= len(a.enc) {
		return fmt.Errorf("storage: enclosure %d out of range", dst)
	}
	if dst == st.enc {
		if done != nil {
			done()
		}
		return nil
	}
	a.migQueue = append(a.migQueue, &migration{item: item, dst: dst, done: done})
	a.kickMigration()
	return nil
}

func (a *Array) kickMigration() {
	for !a.migActive && len(a.migQueue) > 0 {
		m := a.migQueue[0]
		a.migQueue = a.migQueue[1:]
		st := &a.items[m.item]
		if m.dst == st.enc {
			if m.done != nil {
				m.done()
			}
			continue
		}
		if a.enc[m.dst].used+st.size > a.cfg.EnclosureCapacity {
			a.stats.MigrationsSkipped++
			a.logMigration(a.clk.Now(), obs.EvMigrationSkip, m.item, -1, m.dst, 0)
			if m.done != nil {
				m.done()
			}
			continue
		}
		// Reserve the destination space and block range up front: the
		// chunks land at a fixed base that interleaved allocations on the
		// destination cannot shift.
		m.base = a.enc[m.dst].alloc(st.size)
		a.migActive = true
		// Destage any delayed writes so the copy is complete.
		a.flushItem(a.clk.Now(), m.item)
		m.startedAt = a.clk.Now()
		a.logMigration(a.clk.Now(), obs.EvMigrationStart, m.item, st.enc, m.dst, st.size)
		a.migrateChunk(a.clk.Now(), m)
	}
}

// migrateChunk copies the next chunk of m and schedules the following one
// at the throttled rate. A faulted copy abandons the migration.
func (a *Array) migrateChunk(now time.Duration, m *migration) {
	st := &a.items[m.item]
	size := st.size
	n := a.cfg.MigrationChunkBytes
	if size-m.offset < n {
		n = size - m.offset
	}
	if n > 0 {
		if err := a.readMigrationSpan(now, m.item, m.offset, n); err != nil {
			a.failMigration(now, m)
			return
		}
		if _, err := a.physical(now, m.dst, m.base+m.offset, int32(n), trace.OpWrite, true, kindMigration, m.item); err != nil {
			a.failMigration(now, m)
			return
		}
		a.stats.MigratedBytes += n
		m.offset += n
	}
	if m.offset >= size {
		a.finishMigration(m)
		return
	}
	delay := time.Duration(float64(n) / a.cfg.MigrationBps * float64(time.Second))
	a.evq.Schedule(now+delay, func(t time.Duration) { a.migrateChunk(t, m) })
}

// readMigrationSpan reads n bytes of item starting at byte offset off
// for a migration copy, splitting the read at extent boundaries so a
// remapped extent is read from its override location rather than the
// item's original home.
func (a *Array) readMigrationSpan(now time.Duration, item trace.ItemID, off, n int64) error {
	if len(a.extents) == 0 {
		st := &a.items[item]
		_, err := a.physical(now, st.enc, st.base+off, int32(n), trace.OpRead, true, kindMigration, item)
		return err
	}
	for n > 0 {
		span := a.cfg.ExtentBytes - off%a.cfg.ExtentBytes
		if span > n {
			span = n
		}
		e, block := a.locate(item, off)
		if _, err := a.physical(now, e, block, int32(span), trace.OpRead, true, kindMigration, item); err != nil {
			return err
		}
		off += span
		n -= span
	}
	return nil
}

// failMigration abandons an in-flight migration on a fault: the item
// stays at its source, the destination's space reservation is released
// (the reserved block range is not reused — a harmless address-space
// hole), and the next queued migration starts.
func (a *Array) failMigration(now time.Duration, m *migration) {
	st := &a.items[m.item]
	a.enc[m.dst].used -= st.size
	a.stats.MigrationsFailed++
	a.inj.CountFailedMigration()
	a.logMigration(now, obs.EvMigrationFail, m.item, st.enc, m.dst, 0)
	if a.tel.Tracer != nil {
		a.tel.Tracer.Management(obs.ManagementSpan{
			Kind: "migration-failed", Start: m.startedAt, End: now,
			Item: int64(m.item), Enclosure: st.enc, Dst: m.dst, Bytes: m.offset,
		})
	}
	a.migActive = false
	if m.done != nil {
		m.done()
	}
	a.kickMigration()
}

func (a *Array) finishMigration(m *migration) {
	st := &a.items[m.item]
	src := st.enc
	// Drop source segments (whole-item and extent overrides alike), and
	// release each override's allocation on its own enclosure.
	a.removeItemSegments(src, m.item)
	var remapped int64
	for ref, loc := range a.extents {
		if ref.Item == m.item {
			a.removeExtentSegment(loc.enc, ref)
			n := a.extentSize(m.item, ref.Extent)
			a.enc[loc.enc].used -= n
			a.tel.Tracer.Residency(a.clk.Now(), loc.enc, int64(m.item), -n)
			remapped += n
			delete(a.extents, ref)
		}
	}
	a.enc[src].used -= st.size
	// The block range was reserved when the copy started; it now becomes
	// the item's home.
	st.enc = m.dst
	st.base = m.base
	a.segs[m.dst] = append(a.segs[m.dst], segment{base: m.base, size: st.size, item: m.item, extent: -1})
	a.migActive = false
	a.stats.Migrations++
	a.logMigration(a.clk.Now(), obs.EvMigrationDone, m.item, src, m.dst, st.size)
	if a.tel.Tracer != nil {
		now := a.clk.Now()
		a.tel.Tracer.Management(obs.ManagementSpan{
			Kind: "migration", Start: m.startedAt, End: now,
			Item: int64(m.item), Enclosure: src, Dst: m.dst, Bytes: st.size,
		})
		// The source held the item's bytes minus any extents that had
		// been remapped away (those were debited above, at their
		// override locations); the destination now holds it whole.
		a.tel.Tracer.Residency(now, src, int64(m.item), -(st.size - remapped))
		a.tel.Tracer.Residency(now, m.dst, int64(m.item), st.size)
	}
	if m.done != nil {
		m.done()
	}
	a.kickMigration()
}

// logMigration records one migration step (typ is one of the
// EvMigration* kinds) in the decision log. src is -1 when the copy
// never started.
func (a *Array) logMigration(now time.Duration, typ obs.EventType, item trace.ItemID, src, dst int, bytes int64) {
	if a.tel.Logging() {
		a.tel.Recorder.Log(now, obs.Event{Type: typ, Migration: &obs.MigrationEvent{Item: int64(item), Src: src, Dst: dst, Bytes: bytes}})
	}
}

func (a *Array) removeItemSegments(e int, item trace.ItemID) {
	segs := a.segs[e][:0]
	for _, s := range a.segs[e] {
		if s.item != item {
			segs = append(segs, s)
		}
	}
	a.segs[e] = segs
}

// extentSize returns the byte size of extent ext of item (the last extent
// may be short).
func (a *Array) extentSize(item trace.ItemID, ext int64) int64 {
	size := a.items[item].size
	start := ext * a.cfg.ExtentBytes
	if start >= size {
		return 0
	}
	n := a.cfg.ExtentBytes
	if size-start < n {
		n = size - start
	}
	return n
}

// MigrateExtent immediately relocates one extent of item to enclosure dst,
// copying it through the enclosure queues. This is the physical-block
// migration primitive used by DDR. It returns an error when dst lacks
// space or the extent is empty.
func (a *Array) MigrateExtent(ref ExtentRef, dst int) error {
	n := a.extentSize(ref.Item, ref.Extent)
	if n == 0 {
		return fmt.Errorf("storage: empty extent %v", ref)
	}
	now := a.clk.Now()
	srcEnc, srcBlock := a.locate(ref.Item, ref.Extent*a.cfg.ExtentBytes)
	if srcEnc == dst {
		return nil
	}
	if a.enc[dst].used+n > a.cfg.EnclosureCapacity {
		return fmt.Errorf("storage: enclosure %d lacks space for extent %v", dst, ref)
	}
	if _, err := a.physical(now, srcEnc, srcBlock, int32(n), trace.OpRead, true, kindMigration, ref.Item); err != nil {
		a.stats.MigrationsFailed++
		a.inj.CountFailedMigration()
		return err
	}
	base := a.enc[dst].alloc(n)
	if _, err := a.physical(now, dst, base, int32(n), trace.OpWrite, true, kindMigration, ref.Item); err != nil {
		// Release the reservation; the cursor hole is harmless.
		a.enc[dst].used -= n
		a.stats.MigrationsFailed++
		a.inj.CountFailedMigration()
		return err
	}
	if loc, ok := a.extents[ref]; ok {
		// The extent had already been remapped once; release its previous
		// override allocation.
		a.enc[loc.enc].used -= n
		a.removeExtentSegment(loc.enc, ref)
	}
	a.extents[ref] = extentLoc{enc: dst, base: base}
	a.segs[dst] = append(a.segs[dst], segment{base: base, size: n, item: ref.Item, extent: ref.Extent})
	a.stats.MigratedBytes += n
	a.stats.Migrations++
	if a.tel.Tracer != nil {
		a.tel.Tracer.Management(obs.ManagementSpan{
			Kind: "migration", Start: now, End: a.clk.Now(),
			Item: int64(ref.Item), Enclosure: srcEnc, Dst: dst, Bytes: n,
		})
		a.tel.Tracer.Residency(now, srcEnc, int64(ref.Item), -n)
		a.tel.Tracer.Residency(now, dst, int64(ref.Item), n)
	}
	return nil
}

func (a *Array) removeExtentSegment(e int, ref ExtentRef) {
	segs := a.segs[e][:0]
	for _, s := range a.segs[e] {
		if s.item == ref.Item && s.extent == ref.Extent {
			continue
		}
		segs = append(segs, s)
	}
	a.segs[e] = segs
}

// DropQueuedMigrations discards every migration that has not started yet.
// A policy calls this when a new placement plan supersedes the previous
// one; the in-flight copy, if any, still completes. Each dropped
// migration's done callback runs, so no caller waits forever on a copy
// that will never happen.
func (a *Array) DropQueuedMigrations() {
	q := a.migQueue
	a.migQueue = nil
	for _, m := range q {
		if m.done != nil {
			m.done()
		}
	}
}

// FlushAll destages every dirty write-delayed item, as at end of run.
func (a *Array) FlushAll() {
	a.flushWriteDelay(a.clk.Now())
}

// Finish integrates every enclosure's power timeline up to now. Call it
// once after the event queue drains, before reading the meter.
func (a *Array) Finish() {
	now := a.clk.Now()
	for _, e := range a.enc {
		e.sync(now)
	}
}
