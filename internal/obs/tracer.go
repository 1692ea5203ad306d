// The span tracer: per-I/O phase timing, management-function spans,
// the streaming latency breakdown and the energy-attribution ledger.
//
// Like the Recorder, a nil *Tracer is a valid, fully disabled tracer:
// every method nil-checks its receiver and returns immediately, so the
// instrumented physical I/O path pays exactly one pointer comparison
// per call site when tracing is off. Construct one with NewTracer only
// when spans are actually wanted.

package obs

import (
	"io"
	"strconv"
	"sync"
	"time"
)

// IOSpan is the record of one application I/O's life inside the
// storage unit: when it arrived, how it was resolved, and how its
// response time splits across phases (spin-up wait → queue → physical
// service; a cache-resolved I/O spends its whole response in the cache
// phase).
type IOSpan struct {
	// Start is the virtual arrival time; Response the
	// application-observed response time.
	Start    time.Duration `json:"start_ns"`
	Response time.Duration `json:"response_ns"`
	// Item is the data item; Enclosure the serving enclosure (-1 when
	// served from cache).
	Item      int64 `json:"item"`
	Enclosure int   `json:"enclosure"`
	Read      bool  `json:"read"`
	// Class is the item's logical I/O pattern class (0..3) as of the
	// last determination, ClassUnknown before the first. Stamped by the
	// tracer.
	Class uint8 `json:"class"`
	// PowerState is the serving enclosure's power state at arrival:
	// "off", "idle" or "active" ("" for cache hits).
	PowerState string `json:"power_state,omitempty"`
	// Cause classifies the serve: cache-hit, disk-on, or
	// spin-up-blocked.
	Cause IOCause `json:"cause"`
	// The phase durations. SpinUpWait includes fault-retry backoff.
	SpinUpWait time.Duration `json:"spinup_wait_ns,omitempty"`
	QueueWait  time.Duration `json:"queue_wait_ns,omitempty"`
	Service    time.Duration `json:"service_ns,omitempty"`
}

// ManagementSpan is the record of one management-function burst: a
// data-item migration, a preload bulk read, a write-delay destage, or
// a run of the power management function (a determination, which is
// instantaneous in virtual time).
type ManagementSpan struct {
	// Kind is "migration", "migration-failed", "preload", "destage" or
	// "determination".
	Kind  string        `json:"kind"`
	Start time.Duration `json:"start_ns"`
	End   time.Duration `json:"end_ns"`
	// Item is the data item moved/loaded/destaged (-1 when n/a).
	Item int64 `json:"item,omitempty"`
	// Enclosure is the source/home enclosure; Dst the migration
	// destination (-1 when n/a).
	Enclosure int   `json:"enclosure"`
	Dst       int   `json:"dst,omitempty"`
	Bytes     int64 `json:"bytes,omitempty"`
	// Cause carries the determination cause.
	Cause string `json:"cause,omitempty"`
	// N is the determination number.
	N int64 `json:"n,omitempty"`
}

// TracerOptions configures a Tracer. All fields are optional; a zero
// Options yields a tracer that only keeps the streaming breakdown and
// ledger.
type TracerOptions struct {
	// Trace receives the run's Perfetto file on Close, which closes it
	// when it is an io.Closer. Nil writes no file (the histograms and
	// ledger still accumulate).
	Trace io.Writer
	// Label names the run (esmbench writes workload/policy) in the
	// file's otherData.
	Label string
	// Registry, when non-nil, reads latency percentile and
	// energy-attribution gauges from the tracer at every scrape.
	Registry *Registry
}

// Tracer records simulated-clock spans for application I/Os and
// management functions, and maintains the latency breakdown and the
// energy-attribution ledger on top of them. All methods are safe on a
// nil receiver (no-ops) and safe for concurrent use.
type Tracer struct {
	mu sync.Mutex
	// file buffers the spans of the Perfetto file (nil without one).
	file    *perfettoWriter
	classes []uint8
	lat     LatencyStats
	ledger  energyLedger
	// attrib is the most recent Attribute result, served by the
	// registry collector and /status between recomputations.
	attrib *Attribution
}

// NewTracer returns a live tracer.
func NewTracer(opts TracerOptions) *Tracer {
	t := &Tracer{}
	if opts.Trace != nil {
		t.file = &perfettoWriter{w: opts.Trace, label: opts.Label, seen: map[[2]int]bool{}}
	}
	if reg := opts.Registry; reg != nil {
		reg.Collect(t.collect)
	}
	return t
}

// SetClasses replaces the item → pattern-class table stamped onto
// subsequent I/O spans. Values above 3 are treated as unknown.
func (t *Tracer) SetClasses(classes []uint8) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.classes = append(t.classes[:0], classes...)
	t.mu.Unlock()
}

func (t *Tracer) classOfLocked(item int64) uint8 {
	if item >= 0 && item < int64(len(t.classes)) && t.classes[item] <= 3 {
		return t.classes[item]
	}
	return ClassUnknown
}

// IO records one completed application I/O span: the pattern class is
// stamped, the latency breakdown updated, and the span added to the
// file. A physically served I/O (Enclosure >= 0) also feeds its
// service time and the spin-up attempts it provoked into the energy
// ledger under FnServing.
func (t *Tracer) IO(sp IOSpan, spinUps int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	sp.Class = t.classOfLocked(sp.Item)
	t.lat.addIO(&sp)
	if sp.Enclosure >= 0 {
		t.ledger.service(sp.Enclosure, sp.Item, FnServing, sp.Service, spinUps)
	}
	if t.file != nil {
		t.file.ioSpan(&sp)
	}
	t.mu.Unlock()
}

// Management records one completed management-function span.
func (t *Tracer) Management(sp ManagementSpan) {
	if t == nil {
		return
	}
	t.mu.Lock()
	if t.file != nil {
		t.file.managementSpan(&sp)
	}
	t.mu.Unlock()
}

// Service feeds one management I/O into the energy ledger: svc of
// physical service on enc for item, driven by fn, and the spin-up
// attempts it provoked. Application I/Os feed the ledger through IO.
func (t *Tracer) Service(enc int, item int64, fn EnergyFunc, svc time.Duration, spinUps int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.ledger.service(enc, item, fn, svc, spinUps)
	t.mu.Unlock()
}

// Residency feeds a resident-footprint change into the energy ledger.
func (t *Tracer) Residency(at time.Duration, enc int, item int64, delta int64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.ledger.residency(at, enc, item, delta)
	t.mu.Unlock()
}

// LatencySummary snapshots the streaming latency breakdown (nil for a
// nil tracer).
func (t *Tracer) LatencySummary() *LatencySummary {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.lat.summary()
}

// Attribute computes the energy attribution as of end, caches it for
// the registry collector, and returns it. energies holds every
// enclosure's powermodel joules, indexed by enclosure; each one gets a
// row, resident items or not.
func (t *Tracer) Attribute(end time.Duration, energies []EnclosureEnergy) *Attribution {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.attrib = t.ledger.attribute(end, energies, t.classOfLocked)
	return t.attrib
}

// Close writes the Perfetto file, with the latency summary and the
// last attribution embedded, and closes its writer. It returns the
// first encoding or close error; closing again does nothing.
func (t *Tracer) Close() error {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.file == nil {
		return nil
	}
	err := t.file.close(t.lat.summary(), t.attrib)
	t.file = nil
	return err
}

// collect emits the latency quantiles of every serve cause and phase
// and the last attribution's per-class and per-function joules, all
// read under one hold of the tracer lock.
func (t *Tracer) collect(emit Emit) {
	t.mu.Lock()
	defer t.mu.Unlock()
	quantiles := func(family, help string, h *Histogram, labels ...string) {
		for _, q := range [...]float64{0.5, 0.95, 0.99, 1} {
			v := h.Max()
			if q < 1 {
				v = h.Percentile(q)
			}
			emit(family, help, KindGauge, v.Seconds(), append(labels, "quantile", strconv.FormatFloat(q, 'g', -1, 64))...)
		}
	}
	for c := IOCause(0); c < IOCauseCount; c++ {
		h := &t.lat.ByCause[c]
		emit("esm_io_latency_count", "Application I/Os by serve cause.", KindGauge, float64(h.Count()), "cause", c.String())
		quantiles("esm_io_latency_seconds", "Application I/O response-time quantiles by serve cause.", h, "cause", c.String())
	}
	for p := Phase(0); p < PhaseCount; p++ {
		quantiles("esm_io_phase_seconds", "Application I/O phase-duration quantiles.", &t.lat.ByPhase[p], "phase", p.String())
	}
	var a Attribution
	if t.attrib != nil {
		a = *t.attrib
	}
	for class, j := range a.ByClass {
		emit("esm_energy_attributed_joules", "Enclosure joules attributed per logical I/O pattern class.", KindGauge, j, "class", ClassName(class))
	}
	for f, j := range a.ByFunc {
		emit("esm_energy_function_joules", "Enclosure joules attributed per management function.", KindGauge, j, "function", EnergyFunc(f).String())
	}
}
