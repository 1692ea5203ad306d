// Disk enclosure model: a multi-server service queue plus a lazily
// evaluated power state machine with energy integration.

package storage

import (
	"time"

	"esm/internal/faults"
	"esm/internal/obs"
	"esm/internal/powermodel"
)

// ioKind distinguishes why a physical I/O was issued. Application I/Os
// contribute to response-time metrics; the others only consume service
// capacity and energy. The kind also attributes a demand spin-up to
// its cause in the telemetry event stream.
type ioKind uint8

const (
	kindApp ioKind = iota
	kindMigration
	kindFlush
	kindPreload
)

// cause maps the I/O kind to the telemetry cause of a spin-up it
// provokes.
func (k ioKind) cause() obs.Cause {
	switch k {
	case kindMigration:
		return obs.CauseMigration
	case kindFlush:
		return obs.CauseFlush
	case kindPreload:
		return obs.CausePreload
	default:
		return obs.CauseDemand
	}
}

// fn maps the I/O kind to the management function its energy is
// attributed to.
func (k ioKind) fn() obs.EnergyFunc {
	switch k {
	case kindMigration:
		return obs.FnMigration
	case kindFlush:
		return obs.FnDestage
	case kindPreload:
		return obs.FnPreload
	default:
		return obs.FnServing
	}
}

// arrivalInfo captures the phase breakdown of one arrival for the span
// tracer. Array.physical keeps it on its stack and the arrival always
// fills it, so the hot path allocates nothing, traced or not.
type arrivalInfo struct {
	// powerState is the enclosure state at arrival: "off", "idle" or
	// "active".
	powerState string
	// spinUpWait is the time from arrival to service readiness when the
	// enclosure was off (spin-up plus any fault-retry backoff); zero
	// when it was on.
	spinUpWait time.Duration
	// queueWait is the wait for a free server after readiness.
	queueWait time.Duration
	// service is the physical service duration.
	service time.Duration
	// spinUpAttempts counts the spin-up attempts the arrival provoked
	// (failed attempts burn spin-up energy too).
	spinUpAttempts int
}

// streamCursors is the number of concurrent sequential streams an
// enclosure's sequential detector tracks.
const streamCursors = 4

// seqWindow is how close (in bytes) an I/O must start to a stream cursor
// to be classified as sequential.
const seqWindow = 128 << 10

type enclosure struct {
	id  int
	cfg *Config
	acc *powermodel.Accumulator

	// Power state. on reports whether the enclosure is spun up; the split
	// between Active and Idle residency is derived from busyUntil.
	on              bool
	spindownEnabled bool

	// servers holds the per-server virtual free times as a binary
	// min-heap (servers[0] is the earliest); busyUntil is the latest
	// completion across servers.
	servers   []time.Duration
	busyUntil time.Duration

	// lastSync is the point up to which energy has been integrated.
	lastSync time.Duration

	// Sequential-stream detection state.
	streams [streamCursors]int64 // next expected block per cursor
	nextCur int

	// Space accounting for the block-virtualization layer.
	used        int64
	allocCursor int64

	// powerEvent, when non-nil, observes power-state transitions with
	// the cause that provoked them.
	powerEvent func(enc int, at time.Duration, on bool, cause obs.Cause)

	// inj injects spin-up and transient I/O faults; nil injects nothing.
	inj *faults.Injector
}

func newEnclosure(id int, cfg *Config) *enclosure {
	e := &enclosure{
		id:      id,
		cfg:     cfg,
		acc:     powermodel.NewAccumulator(cfg.Power),
		on:      true,
		servers: make([]time.Duration, cfg.ServersPerEnclosure),
	}
	for i := range e.streams {
		e.streams[i] = -1
	}
	return e
}

// sync integrates the enclosure's power timeline up to `to`, performing
// any pending spin-down transition on the way. It is called before every
// arrival and every control change.
func (e *enclosure) sync(to time.Duration) {
	if to <= e.lastSync {
		return
	}
	t := e.lastSync
	for t < to {
		if !e.on {
			e.acc.Add(powermodel.Off, to-t)
			t = to
			break
		}
		if t < e.busyUntil {
			end := e.busyUntil
			if end > to {
				end = to
			}
			e.acc.Add(powermodel.Active, end-t)
			t = end
			continue
		}
		// Idle since max(busyUntil, t).
		if e.spindownEnabled {
			offAt := e.busyUntil + e.cfg.SpinDownTimeout
			if offAt < t {
				// Spin-down was enabled while the idle timer had already
				// expired; power off immediately.
				offAt = t
			}
			if offAt <= to {
				e.acc.Add(powermodel.Idle, offAt-t)
				e.on = false
				if e.powerEvent != nil {
					e.powerEvent(e.id, offAt, false, obs.CauseIdleTimeout)
				}
				t = offAt
				continue
			}
		}
		e.acc.Add(powermodel.Idle, to-t)
		t = to
	}
	e.lastSync = to
}

// setSpinDown enables or disables power-off for the enclosure at time now.
// Disabling while the enclosure is off leaves it off until the next I/O
// spins it up.
func (e *enclosure) setSpinDown(now time.Duration, enabled bool) {
	e.sync(now)
	e.spindownEnabled = enabled
}

// isSequential classifies the I/O against the recent stream cursors and
// updates them. The detector tracks a handful of concurrent streams, which
// is how real array firmware recognises scans through interleaved traffic.
func (e *enclosure) isSequential(block int64, size int32) bool {
	for i := range e.streams {
		c := e.streams[i]
		if c >= 0 && block >= c && block-c <= seqWindow {
			e.streams[i] = block + int64(size)
			return true
		}
	}
	e.streams[e.nextCur] = block + int64(size)
	e.nextCur = (e.nextCur + 1) % streamCursors
	return false
}

// serviceTime returns the service duration of one I/O.
func (e *enclosure) serviceTime(size int32, sequential bool) time.Duration {
	var posSec float64
	if sequential {
		posSec = float64(e.cfg.ServersPerEnclosure) / e.cfg.SeqIOPS
	} else {
		posSec = float64(e.cfg.ServersPerEnclosure) / e.cfg.RandomIOPS
	}
	sec := posSec + float64(size)/e.cfg.TransferBps
	return time.Duration(sec * float64(time.Second))
}

// arrival submits one physical I/O at time now and returns its completion
// time. The completion includes any spin-up wait, retry backoff and
// queueing delay. kind attributes any spin-up the arrival provokes. A
// *FaultError is returned when an injected fault exhausts the spin-up
// retries; the enclosure then stays off and the I/O never runs. info
// receives the arrival's phase breakdown.
func (e *enclosure) arrival(now time.Duration, block int64, size int32, sequential bool, kind ioKind, info *arrivalInfo) (time.Duration, error) {
	e.sync(now)
	switch {
	case !e.on:
		info.powerState = "off"
	case now < e.busyUntil:
		info.powerState = "active"
	default:
		info.powerState = "idle"
	}
	start := now
	if !e.on {
		// Spin up, retrying failed attempts with exponential backoff on
		// the simulated clock. Each failed attempt still burns spin-up
		// energy (the motor turned); the backoff is spent powered off.
		attempt := 1
		for e.inj.SpinUpAttemptFails(start, e.id, attempt) {
			e.acc.Add(powermodel.SpinUp, e.cfg.Power.SpinUpTime)
			start += e.cfg.Power.SpinUpTime
			info.spinUpAttempts++
			if attempt >= e.inj.MaxSpinUpAttempts() {
				e.lastSync = start
				e.inj.SpinUpExhausted(start, e.id)
				return 0, &FaultError{Enclosure: e.id, Op: "spin-up"}
			}
			backoff := e.inj.SpinUpBackoff(attempt)
			e.acc.Add(powermodel.Off, backoff)
			start += backoff
			attempt++
		}
		spinEnd := start + e.cfg.Power.SpinUpTime
		e.acc.Add(powermodel.SpinUp, e.cfg.Power.SpinUpTime)
		e.acc.CountSpinUp()
		e.on = true
		if e.powerEvent != nil {
			e.powerEvent(e.id, start, true, kind.cause())
		}
		// Clamping every free time to spinEnd is monotone, so the heap
		// order survives it.
		for i := range e.servers {
			if e.servers[i] < spinEnd {
				e.servers[i] = spinEnd
			}
		}
		if e.busyUntil < spinEnd {
			// Spin-up residency is integrated eagerly; move the sync point
			// past it so it is not double counted as Active.
			e.busyUntil = spinEnd
		}
		e.lastSync = spinEnd
		start = spinEnd
		info.spinUpAttempts++
		info.spinUpWait = start - now
	}
	svc := e.serviceTime(size, sequential)
	if e.inj.TransientIO(start, e.id) {
		// A transient error: the enclosure retries the I/O internally, so
		// it occupies its server twice plus the retry delay.
		svc = svc*2 + e.inj.TransientIODelay()
	}
	// The I/O takes the earliest free server. Servers are
	// interchangeable (service time never depends on which one runs the
	// I/O), so taking the heap's root yields the same multiset of free
	// times, busyUntil, queue wait and completion as scanning for the
	// lowest-indexed earliest server.
	begin := max(start, e.servers[0])
	end := begin + svc
	replaceMin(e.servers, end)
	if end > e.busyUntil {
		e.busyUntil = end
	}
	info.queueWait = begin - start
	info.service = svc
	return end, nil
}

// replaceMin replaces the root of the min-heap h with v and sifts it
// down to restore the heap order.
func replaceMin(h []time.Duration, v time.Duration) {
	i := 0
	for {
		c := 2*i + 1
		if c >= len(h) {
			break
		}
		if r := c + 1; r < len(h) && h[r] < h[c] {
			c = r
		}
		if v <= h[c] {
			break
		}
		h[i] = h[c]
		i = c
	}
	h[i] = v
}

// idleSince returns the start of the current idle period, or false when
// the enclosure is busy or off.
func (e *enclosure) idleSince(now time.Duration) (time.Duration, bool) {
	if !e.on || now < e.busyUntil {
		return 0, false
	}
	return e.busyUntil, true
}

// alloc reserves size bytes and returns the starting block address.
// Capacity enforcement is the caller's job; alloc only tracks addresses so
// sequential detection sees realistic layouts.
func (e *enclosure) alloc(size int64) int64 {
	base := e.allocCursor
	e.allocCursor += size
	e.used += size
	return base
}
