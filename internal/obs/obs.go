// Package obs is the telemetry layer. Its spine is one decision log:
// every decision site builds one typed Event and hands it to the
// Recorder, which encodes it once as a JSONL line, writes that line to
// the log file and keeps it in the live Tail, and tallies it into the
// roll-up that backs both the log's summary and the esm_* metrics a
// dependency-free registry reads at scrape time and renders in
// Prometheus text exposition format. Spans, flight samples and alerts
// are the other surfaces.
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
	"sync/atomic"
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
// the line to the log file and hands it to the live tail, and keeps one
// tally of what it logged, which its summary and its registry collector
// both read. All methods are safe on a nil receiver (no-ops) and safe
// for concurrent use.
type Recorder struct {
	mu    sync.Mutex
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

	sum tally
	// idleW and spinUpS are the electrical constants of the predicted
	// deltas: the power-model defaults until ConfigurePower installs
	// the run's own.
	idleW   float64
	spinUpS float64

	// metered is set when a registry reads the recorder. Only then do
	// the hot-path counters below advance; they are atomics so the
	// physical I/O path never takes the lock.
	metered       bool
	physReads     atomic.Int64
	physWrites    atomic.Int64
	cacheHits     atomic.Int64
	delayedWrites atomic.Int64
}

// tally is the roll-up of the records the recorder took: the summary
// of its log and the values of the esm_* metrics its collector emits.
type tally struct {
	ProvenanceSummary
	spinUps, powerOffs, migratedBytes, replanTriggers, degradations int64
	// periodS, hot and degraded are the latest monitoring-period
	// length, hot-enclosure count and degraded flag.
	periodS  float64
	hot      int
	degraded bool
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
	// Registry, when non-nil, reads the esm_* counters and gauges of
	// the recorder's tally at every scrape.
	Registry *Registry
	// Label is stamped into every event's "run" field, so streams of
	// several runs stay apart (esmbench labels them workload/policy).
	Label string
}

// New returns a live recorder.
func New(opts Options) *Recorder {
	r := &Recorder{tail: opts.Tail, label: opts.Label, idleW: 220, spinUpS: 15}
	if w := opts.Log; w != nil {
		r.log = bufio.NewWriter(w)
		r.logC, _ = w.(io.Closer)
	}
	r.enc = json.NewEncoder(&r.line)
	if reg := opts.Registry; reg != nil {
		r.metered = true
		reg.Collect(r.collect)
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

// PhysicalIO counts one physical I/O for the registry. It sits on the
// simulator's hottest path; keep it to the nil check and one atomic
// increment.
func (r *Recorder) PhysicalIO(read bool) {
	if r == nil || !r.metered {
		return
	}
	if read {
		r.physReads.Add(1)
	} else {
		r.physWrites.Add(1)
	}
}

// CacheHit counts one application I/O served from cache.
func (r *Recorder) CacheHit() {
	if r == nil || !r.metered {
		return
	}
	r.cacheHits.Add(1)
}

// DelayedWrite counts one write absorbed by the write-delay partition.
func (r *Recorder) DelayedWrite() {
	if r == nil || !r.metered {
		return
	}
	r.delayedWrites.Add(1)
}

// Log is the recorder's one entry point for decision-log records: it
// tallies the record, stamps sequence, label and time onto it, encodes
// it once and writes the line to the log file and the tail. The record
// is encoded before Log returns, so a caller may reuse its payload at
// once. Cache records listing no items change nothing and are dropped.
// A move decision gets its predicted deltas: packing an item's
// long-idle seconds onto a cold enclosure is predicted to save idleW x
// interval joules while exposing its reads to one spin-up stall;
// promoting it to a hot enclosure predicts the inverse trade.
func (r *Recorder) Log(t time.Duration, ev Event) {
	if r == nil || ev.Cache != nil && len(ev.Cache.Items) == 0 {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.sum.add(ev)
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

// add tallies one record.
func (s *tally) add(ev Event) {
	s.Rows++
	switch ev.Type {
	case EvPowerOn:
		s.Transitions++
		if ev.Power.State == "spinup" {
			s.spinUps++
		}
	case EvPowerOff:
		s.Transitions++
		s.powerOffs++
	case EvMigrationDone:
		s.Migrations++
		s.migratedBytes += ev.Migration.Bytes
	case EvDetermination:
		d := ev.Determination
		s.Determinations++
		s.periodS = time.Duration(d.NextPeriodNS).Seconds()
		s.hot = 0
		for _, h := range d.Hot {
			if h {
				s.hot++
			}
		}
	case EvDecision:
		s.Decisions++
	case EvReplanTrigger:
		s.replanTriggers++
	case EvFault:
		s.Faults++
	case EvDegrade:
		s.degraded = ev.Degrade.Entered
		if s.degraded {
			s.degradations++
		}
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
	sum := r.sum.ProvenanceSummary
	return &sum
}

// collect emits the recorder's esm_* metrics: the hot-path counters
// and the tally, read once under the lock.
func (r *Recorder) collect(emit Emit) {
	r.mu.Lock()
	s := r.sum
	r.mu.Unlock()
	counter := func(family, help string, n int64) { emit(family, help, KindCounter, float64(n)) }
	gauge := func(family, help string, v float64) { emit(family, help, KindGauge, v) }
	counter("esm_physical_reads_total", "Physical read I/Os issued to enclosures.", r.physReads.Load())
	counter("esm_physical_writes_total", "Physical write I/Os issued to enclosures.", r.physWrites.Load())
	counter("esm_cache_hits_total", "Application I/Os served entirely from cache.", r.cacheHits.Load())
	counter("esm_delayed_writes_total", "Application writes absorbed by the write-delay partition.", r.delayedWrites.Load())
	counter("esm_migrated_bytes_total", "Bytes copied by data-item and extent migrations.", s.migratedBytes)
	counter("esm_migrations_total", "Completed data-item migrations.", s.Migrations)
	counter("esm_spin_ups_total", "Enclosure power-on transitions.", s.spinUps)
	counter("esm_power_offs_total", "Enclosure power-off transitions.", s.powerOffs)
	counter("esm_determinations_total", "Runs of the power management function.", s.Determinations)
	counter("esm_replan_triggers_total", "Pattern-change triggers that forced an immediate replan.", s.replanTriggers)
	counter("esm_faults_total", "Injected storage faults (spin-up failures, transient I/O errors, battery transitions).", s.Faults)
	counter("esm_degradations_total", "Transitions of the policy into degraded mode.", s.degradations)
	gauge("esm_monitoring_period_seconds", "Current monitoring-period length.", s.periodS)
	gauge("esm_hot_enclosures", "Enclosures classified hot by the last determination.", float64(s.hot))
	degraded := 0.0
	if s.degraded {
		degraded = 1
	}
	gauge("esm_degraded", "1 while the policy is in degraded mode, else 0.", degraded)
}
