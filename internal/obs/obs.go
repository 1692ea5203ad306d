// Package obs is the telemetry layer. Its spine is one decision log:
// every decision site builds one typed Event and hands it to
// Telemetry.Log, which fans it out to the sinks — the Recorder (the
// JSONL event stream and the esm_* counters of a dependency-free
// registry rendered in Prometheus text exposition format) and the
// Provenance ledger. Spans, flight samples and alerts are the other
// surfaces.
//
// A nil *Recorder is a valid, fully disabled recorder: every method
// nil-checks its receiver and returns immediately, so instrumented hot
// paths (storage.Array.Submit, the physical I/O path) pay exactly one
// pointer comparison when telemetry is off. Construct one with New
// only when an event sink or a registry is actually wanted.
package obs

import (
	"sync"
	"time"
)

// Cause attributes a power-state transition or a management-function
// run to what provoked it.
type Cause string

// Power-transition and determination causes.
const (
	// CauseIdleTimeout: the enclosure's idle timer expired and the
	// power-off function spun it down.
	CauseIdleTimeout Cause = "idle-timeout"
	// CauseDemand: an application I/O arrived at a powered-off
	// enclosure and forced a spin-up.
	CauseDemand Cause = "demand"
	// CauseMigration: migration traffic forced a spin-up.
	CauseMigration Cause = "migration"
	// CauseFlush: a write-delay destage forced a spin-up.
	CauseFlush Cause = "flush"
	// CausePreload: a preload bulk read forced a spin-up.
	CausePreload Cause = "preload"
	// CausePeriodEnd: the monitoring period ended (Algorithm 1's
	// regular cadence).
	CausePeriodEnd Cause = "period-end"
	// CauseTriggerInterval: pattern-change trigger i) — a hot enclosure
	// saw an I/O interval longer than the break-even time.
	CauseTriggerInterval Cause = "trigger-interval"
	// CauseTriggerSpinUps: pattern-change trigger ii) — cold enclosures
	// spun up more than m times since the last determination.
	CauseTriggerSpinUps Cause = "trigger-spinups"
)

// Recorder is the decision log's event-stream sink: it encodes records
// for an event sink and keeps the esm_* metrics of a registry. All
// methods are safe on a nil receiver (no-ops) and safe for concurrent
// use.
type Recorder struct {
	mu    sync.Mutex
	sink  Sink
	reg   *Registry
	label string
	seq   int64

	// Registry instruments, pre-resolved so the hot path does not pay
	// a map lookup. All nil when no registry is attached.
	cPhysReads      *Counter
	cPhysWrites     *Counter
	cCacheHits      *Counter
	cDelayedWrites  *Counter
	cMigratedBytes  *Counter
	cMigrations     *Counter
	cSpinUps        *Counter
	cPowerOffs      *Counter
	cDeterminations *Counter
	cReplanTriggers *Counter
	cFaults         *Counter
	cDegradations   *Counter
	gPeriodSeconds  *Gauge
	gHotEnclosures  *Gauge
	gDegraded       *Gauge
}

// Options configures a Recorder. All fields are optional; a zero
// Options yields a recorder that keeps nothing.
type Options struct {
	// Sink receives every event. Nil discards events.
	Sink Sink
	// Registry, when non-nil, is populated with the esm_* counters and
	// gauges the recorder maintains.
	Registry *Registry
	// Label is stamped into every event's "run" field; esmbench uses it
	// to tell the interleaved per-policy streams of one file apart.
	Label string
}

// New returns a live recorder.
func New(opts Options) *Recorder {
	r := &Recorder{sink: opts.Sink, reg: opts.Registry, label: opts.Label}
	if reg := opts.Registry; reg != nil {
		r.cPhysReads = reg.Counter("esm_physical_reads_total", "Physical read I/Os issued to enclosures.")
		r.cPhysWrites = reg.Counter("esm_physical_writes_total", "Physical write I/Os issued to enclosures.")
		r.cCacheHits = reg.Counter("esm_cache_hits_total", "Application I/Os served entirely from cache.")
		r.cDelayedWrites = reg.Counter("esm_delayed_writes_total", "Application writes absorbed by the write-delay partition.")
		r.cMigratedBytes = reg.Counter("esm_migrated_bytes_total", "Bytes copied by data-item and extent migrations.")
		r.cMigrations = reg.Counter("esm_migrations_total", "Completed data-item migrations.")
		r.cSpinUps = reg.Counter("esm_spin_ups_total", "Enclosure power-on transitions.")
		r.cPowerOffs = reg.Counter("esm_power_offs_total", "Enclosure power-off transitions.")
		r.cDeterminations = reg.Counter("esm_determinations_total", "Runs of the power management function.")
		r.cReplanTriggers = reg.Counter("esm_replan_triggers_total", "Pattern-change triggers that forced an immediate replan.")
		r.cFaults = reg.Counter("esm_faults_total", "Injected storage faults (spin-up failures, transient I/O errors, battery transitions).")
		r.cDegradations = reg.Counter("esm_degradations_total", "Transitions of the policy into degraded mode.")
		r.gPeriodSeconds = reg.Gauge("esm_monitoring_period_seconds", "Current monitoring-period length.")
		r.gHotEnclosures = reg.Gauge("esm_hot_enclosures", "Enclosures classified hot by the last determination.")
		r.gDegraded = reg.Gauge("esm_degraded", "1 while the policy is in degraded mode, else 0.")
	}
	return r
}

// emit stamps sequence, label and time onto ev and hands it to the
// sink. Callers hold no lock.
func (r *Recorder) emit(t time.Duration, ev Event) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.sink == nil {
		return
	}
	r.seq++
	ev.Seq = r.seq
	ev.T = int64(t)
	ev.Run = r.label
	r.sink.Emit(ev)
}

// Close flushes and closes the sink, if any.
func (r *Recorder) Close() error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.sink == nil {
		return nil
	}
	return r.sink.Close()
}

// PhysicalIO counts one physical I/O on the registry. It sits on the
// simulator's hottest path; keep it to the nil check and two atomic
// increments.
func (r *Recorder) PhysicalIO(read bool) {
	if r == nil || r.reg == nil {
		return
	}
	if read {
		r.cPhysReads.Inc()
	} else {
		r.cPhysWrites.Inc()
	}
}

// CacheHit counts one application I/O served from cache.
func (r *Recorder) CacheHit() {
	if r == nil || r.reg == nil {
		return
	}
	r.cCacheHits.Inc()
}

// DelayedWrite counts one write absorbed by the write-delay partition.
func (r *Recorder) DelayedWrite() {
	if r == nil || r.reg == nil {
		return
	}
	r.cDelayedWrites.Inc()
}

// Log is the recorder's one entry point for decision-log records: it
// advances the esm_* registry instruments the record's kind drives and
// hands the record to the sink. The recorder drops, by rule, what the
// event stream does not carry: per-item decisions (EvDecision, the
// ledger's), the "on" segment that ends a spin-up (the spin-up event
// already reported the transition) and cache records listing no items.
func (r *Recorder) Log(t time.Duration, ev Event) {
	if r == nil {
		return
	}
	if r.reg != nil {
		r.count(ev)
	}
	switch {
	case ev.Type == EvDecision,
		ev.Power != nil && ev.Power.State == "on",
		ev.Cache != nil && len(ev.Cache.Items) == 0:
		return
	}
	r.emit(t, ev)
}

// count advances the registry instruments one record drives.
func (r *Recorder) count(ev Event) {
	switch ev.Type {
	case EvPowerOn:
		if ev.Power.State == "spinup" {
			r.cSpinUps.Inc()
		}
	case EvPowerOff:
		r.cPowerOffs.Inc()
	case EvMigrationDone:
		r.cMigrations.Inc()
		r.cMigratedBytes.Add(ev.Migration.Bytes)
	case EvDetermination:
		d := ev.Determination
		r.cDeterminations.Inc()
		r.gPeriodSeconds.Set(time.Duration(d.NextPeriodNS).Seconds())
		hot := 0
		for _, h := range d.Hot {
			if h {
				hot++
			}
		}
		r.gHotEnclosures.Set(float64(hot))
	case EvReplanTrigger:
		r.cReplanTriggers.Inc()
	case EvFault:
		r.cFaults.Inc()
	case EvDegrade:
		if ev.Degrade.Entered {
			r.cDegradations.Inc()
			r.gDegraded.Set(1)
		} else {
			r.gDegraded.Set(0)
		}
	}
}
