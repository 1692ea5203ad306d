// Package obs is the telemetry layer. Its spine is one decision log:
// every decision site builds one typed Event and hands it to the
// Recorder, which encodes it once as a JSONL line, writes that line to
// the log file and keeps it in the live Tail, keeps the log's roll-up,
// and advances the esm_* counters of a dependency-free registry
// rendered in Prometheus text exposition format. Spans, flight samples
// and alerts are the other surfaces.
//
// A nil *Recorder is a valid, fully disabled recorder: every method
// nil-checks its receiver and returns immediately, so instrumented hot
// paths (storage.Array.Submit, the physical I/O path) pay exactly one
// pointer comparison when telemetry is off. Construct one with New
// only when a log, a tail or a registry is actually wanted.
package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
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

// Recorder is the decision log: it encodes every record once, writes
// the line to the log file and hands it to the live tail, keeps the
// roll-up counters of what it logged, and keeps the esm_* metrics of a
// registry. All methods are safe on a nil receiver (no-ops) and safe
// for concurrent use.
type Recorder struct {
	mu    sync.Mutex
	reg   *Registry
	label string
	seq   int64

	// log buffers the JSONL file and logC closes it (nil when the file
	// is no io.Closer). err is the first encoding or write error; the
	// file takes no record after it.
	log  *bufio.Writer
	logC io.Closer
	err  error
	tail *Tail
	// enc encodes ev, the recorder's copy of the record being logged,
	// into line: the recorder owns all three, so encoding allocates
	// nothing.
	enc  *json.Encoder
	ev   Event
	line bytes.Buffer

	// sum is the roll-up of every record written.
	sum ProvenanceSummary
	// idleW and spinUpS are the electrical constants of the predicted
	// deltas: the power-model defaults until ConfigurePower installs
	// the run's own.
	idleW   float64
	spinUpS float64

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

// attribTopPerEnc is how many items per enclosure, by attributed
// joules, RecordAttribution writes.
const attribTopPerEnc = 16

// ProvenanceSummary is the manifest/status roll-up of one decision log.
type ProvenanceSummary struct {
	// Rows counts every record written.
	Rows           int64 `json:"rows"`
	Determinations int64 `json:"determinations"`
	Decisions      int64 `json:"decisions"`
	Transitions    int64 `json:"transitions"`
	Migrations     int64 `json:"migrations"`
	Faults         int64 `json:"faults"`
}

// Options configures a Recorder. All fields are optional; a zero
// Options yields a recorder that keeps nothing.
type Options struct {
	// Log receives every record as one JSONL line, buffered. Close
	// flushes it, and closes it when it is an io.Closer. Nil writes no
	// file.
	Log io.Writer
	// Tail, when non-nil, keeps the latest lines for a live scrape
	// (ServeProvenance).
	Tail *Tail
	// Registry, when non-nil, is populated with the esm_* counters and
	// gauges the recorder maintains.
	Registry *Registry
	// Label is stamped into every event's "run" field, so streams of
	// several runs stay apart (esmbench labels them workload/policy).
	Label string
}

// New returns a live recorder.
func New(opts Options) *Recorder {
	r := &Recorder{tail: opts.Tail, reg: opts.Registry, label: opts.Label, idleW: 220, spinUpS: 15}
	if w := opts.Log; w != nil {
		r.log = bufio.NewWriter(w)
		r.logC, _ = w.(io.Closer)
	}
	r.enc = json.NewEncoder(&r.line)
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

// ConfigurePower overwrites the electrical constants the predicted
// deltas of moves are computed with; replay calls it with the run's
// actual storage config before the clock starts.
func (r *Recorder) ConfigurePower(idleW float64, spinUp time.Duration) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if idleW > 0 {
		r.idleW = idleW
	}
	if spinUp > 0 {
		r.spinUpS = spinUp.Seconds()
	}
}

// Close flushes the log file and closes it when it is an io.Closer. It
// returns the first encoding, write or close error.
func (r *Recorder) Close() error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.log == nil {
		return nil
	}
	if err := r.log.Flush(); r.err == nil {
		r.err = err
	}
	if r.logC != nil {
		if err := r.logC.Close(); r.err == nil {
			r.err = err
		}
	}
	return r.err
}

// keeps reports whether the recorder logs to a file or a tail.
func (r *Recorder) keeps() bool { return r.log != nil || r.tail != nil }

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
// advances the esm_* registry instruments the record's kind drives,
// stamps sequence, label and time onto it, encodes it once and writes
// the line to the log file and the tail. The record is encoded before
// Log returns, so a caller may reuse its payload at once. Cache records
// listing no items change nothing and are dropped. A move decision gets
// its predicted deltas: packing an item's long-idle seconds onto a cold
// enclosure is predicted to save idleW x interval joules while exposing
// its reads to one spin-up stall; promoting it to a hot enclosure
// predicts the inverse trade.
func (r *Recorder) Log(t time.Duration, ev Event) {
	if r == nil {
		return
	}
	if r.reg != nil {
		r.count(ev)
	}
	if ev.Cache != nil && len(ev.Cache.Items) == 0 {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.keeps() {
		return
	}
	if d := ev.Decision; d != nil && d.Kind == DecisionMove {
		dj := r.idleW * d.IntervalS
		dus := r.spinUpS * 1e6 * d.ReadRatio
		if d.ToCold {
			d.PredDJ, d.PredDUS = -dj, dus
		} else {
			d.PredDJ, d.PredDUS = dj, -dus
		}
	}
	r.seq++
	ev.Seq = r.seq
	ev.T = int64(t)
	ev.Run = r.label
	r.tally(ev.Type)
	r.ev = ev
	r.line.Reset()
	// A record that fails to encode leaves an empty line: the file
	// stops at the error, and the tail keeps the record's slot.
	if err := r.enc.Encode(&r.ev); err != nil && r.err == nil {
		r.err = err
	}
	if r.log != nil && r.err == nil {
		_, r.err = r.log.Write(r.line.Bytes())
	}
	r.tail.add(ev.T, r.line.Bytes())
}

// tally advances the roll-up counters. Caller holds r.mu.
func (r *Recorder) tally(typ EventType) {
	r.sum.Rows++
	switch typ {
	case EvDetermination:
		r.sum.Determinations++
	case EvDecision:
		r.sum.Decisions++
	case EvPowerOn, EvPowerOff:
		r.sum.Transitions++
	case EvMigrationDone:
		r.sum.Migrations++
	case EvFault:
		r.sum.Faults++
	}
}

// RecordAttribution joins the energy ledger into the log at end of
// run: for each enclosure, an attribution record naming up to
// attribTopPerEnc items by attributed joules.
func (r *Recorder) RecordAttribution(t time.Duration, a *Attribution) {
	if r == nil || a == nil {
		return
	}
	for _, enc := range a.Enclosures {
		if n := min(len(enc.ByItem), attribTopPerEnc); n > 0 {
			r.Log(t, Event{Type: EvAttribution, Attribution: &AttributionEvent{Enclosure: enc.Enclosure, Items: enc.ByItem[:n]}})
		}
	}
}

// Summary returns the roll-up counters; nil when the recorder keeps no
// log (neither a file nor a tail).
func (r *Recorder) Summary() *ProvenanceSummary {
	if r == nil || !r.keeps() {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	sum := r.sum
	return &sum
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
