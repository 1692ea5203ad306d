// The decision log's record: one typed envelope per decision or
// consequential transition. Decision sites hand it to Telemetry.Log,
// which fans it out to the sinks; the Recorder serialises its kinds as
// one JSON object per line (JSONL) so a saved log can be replayed,
// diffed, or fed to external tooling.

package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sync"
)

// EventType names the kind of transition an Event describes.
type EventType string

// The event vocabulary.
const (
	EvDeterminationStart EventType = "determination_start"
	EvDetermination      EventType = "determination"
	EvMigrationStart     EventType = "migration_start"
	EvMigrationDone      EventType = "migration_done"
	EvMigrationSkip      EventType = "migration_skip"
	EvCacheSelect        EventType = "cache_select"
	EvCacheEvict         EventType = "cache_evict"
	EvPowerOn            EventType = "power_on"
	EvPowerOff           EventType = "power_off"
	EvReplanTrigger      EventType = "replan_trigger"
	EvPeriodAdapt        EventType = "period_adapt"
	EvFault              EventType = "fault"
	EvDegrade            EventType = "degrade"
	EvMigrationFail      EventType = "migration_fail"
	EvAlert              EventType = "alert"
	// EvDecision is a determination-time decision (Decision payload).
	// Only the provenance ledger encodes it; the JSONL stream never
	// carries one.
	EvDecision EventType = "decision"
)

// Event is the record every decision and transition is reported in.
// Exactly one payload pointer is set, matching Type.
type Event struct {
	// Seq is the 1-based emission order within one recorder.
	Seq int64 `json:"seq"`
	// T is the virtual time of the transition in nanoseconds.
	T int64 `json:"t_ns"`
	// Type selects the payload.
	Type EventType `json:"type"`
	// Run labels the replay the event belongs to (esmbench writes the
	// policy name here); empty for single-run tools.
	Run string `json:"run,omitempty"`

	Determination *DeterminationEvent `json:"determination,omitempty"`
	Migration     *MigrationEvent     `json:"migration,omitempty"`
	Cache         *CacheEvent         `json:"cache,omitempty"`
	Power         *PowerEvent         `json:"power,omitempty"`
	Replan        *ReplanEvent        `json:"replan,omitempty"`
	Period        *PeriodEvent        `json:"period,omitempty"`
	Fault         *FaultEvent         `json:"fault,omitempty"`
	Degrade       *DegradeEvent       `json:"degrade,omitempty"`
	Alert         *AlertEvent         `json:"alert,omitempty"`
	Decision      *Decision           `json:"-"`
}

// Decision is one determination-time decision of the management
// function, with the per-item features that led to it: the
// determination's summary row, a planned move, a reclassification, or
// a preload/write-delay pick. It is the provenance ledger's payload and
// has no JSON encoding.
type Decision struct {
	// Kind is ProvDetermination, ProvMove, ProvReclass, ProvPreload or
	// ProvDestage.
	Kind  int
	Det   int64
	Cause Cause
	// Item is -1 on the summary row.
	Item      int64
	Class     int // P0-P3 after this determination; -1 on the summary row
	PrevClass int // class before; -1 when unchanged/unknown
	// Src is the item's current enclosure (-1 unknown) and Dst a move's
	// destination (-1 otherwise); the summary row carries the hot
	// enclosure count and the planned move count in them.
	Src       int
	Dst       int
	IntervalS float64
	ReadRatio float64
	CostSrc   float64 // planned IOPS load on Src after placement
	CostDst   float64 // planned IOPS load on Dst after placement
	// ToCold marks a move that packs the item onto a power-managed
	// cold enclosure (predicted to save idle joules at the price of
	// spin-up exposure); false predicts the inverse trade.
	ToCold bool
}

// DeterminationEvent describes one run of the power management
// function. A determination_start event carries only N and Cause; the
// determination (end) event carries the full decision.
type DeterminationEvent struct {
	// N is the 1-based determination number.
	N int64 `json:"n"`
	// Cause is what provoked the run: period-end, trigger-interval or
	// trigger-spinups.
	Cause Cause `json:"cause,omitempty"`
	// PatternCounts is the number of items classified P0..P3.
	PatternCounts [4]int `json:"patterns,omitempty"`
	// Hot is the per-enclosure hot flag; NHot the hot count.
	Hot  []bool `json:"hot,omitempty"`
	NHot int    `json:"n_hot,omitempty"`
	// Moves is the number of planned migrations; WriteDelay and
	// Preload the sizes of the cache-function selections.
	Moves      int `json:"moves,omitempty"`
	WriteDelay int `json:"write_delay,omitempty"`
	Preload    int `json:"preload,omitempty"`
	// NextPeriodNS is the monitoring period chosen for the next cycle.
	NextPeriodNS int64 `json:"next_period_ns,omitempty"`
}

// MigrationEvent describes one data-item migration. Src is -1 when the
// source is unknown (a skipped migration never started its copy).
type MigrationEvent struct {
	Item  int64 `json:"item"`
	Src   int   `json:"src"`
	Dst   int   `json:"dst"`
	Bytes int64 `json:"bytes,omitempty"`
}

// CacheEvent describes a cache-function selection change. Function is
// "preload" or "write-delay".
type CacheEvent struct {
	Function string  `json:"function"`
	Items    []int64 `json:"items"`
}

// PowerEvent describes one enclosure power transition. State is
// "spinup" (power-on begins, type power_on), "on" (service begins
// SpinUpTime later, also power_on; only the ledger keeps it) or "off"
// (type power_off).
type PowerEvent struct {
	Enclosure int    `json:"enclosure"`
	State     string `json:"state"`
	Cause     Cause  `json:"cause"`
}

// ReplanEvent describes a §V-D pattern-change trigger firing, with the
// measurement that crossed the threshold.
type ReplanEvent struct {
	// Trigger is trigger-interval (i) or trigger-spinups (ii).
	Trigger Cause `json:"trigger"`
	// Enclosure is the hot enclosure whose interval fired trigger i),
	// or the cold enclosure whose spin-up fired trigger ii).
	Enclosure int `json:"enclosure"`
	// IntervalNS is the measured I/O interval for trigger i).
	IntervalNS int64 `json:"interval_ns,omitempty"`
	// SpinUps and Threshold are the cold spin-up count and the m it
	// exceeded for trigger ii).
	SpinUps   int     `json:"spin_ups,omitempty"`
	Threshold float64 `json:"threshold,omitempty"`
}

// PeriodEvent describes a monitoring-period adaptation.
type PeriodEvent struct {
	OldNS int64 `json:"old_ns"`
	NewNS int64 `json:"new_ns"`
}

// FaultEvent describes one injected fault (see internal/faults for the
// kind vocabulary). Enclosure is -1 for battery faults; Attempt is the
// 1-based spin-up attempt for spin-up faults.
type FaultEvent struct {
	Kind      string `json:"kind"`
	Enclosure int    `json:"enclosure"`
	Attempt   int    `json:"attempt,omitempty"`
}

// DegradeEvent describes the ESM policy entering or leaving degraded
// mode (all enclosures treated hot, no spin-down, no migration).
type DegradeEvent struct {
	// Entered is true on the transition into degraded mode.
	Entered bool `json:"entered"`
	// Faults is the fault count inside the sliding window that crossed
	// the threshold (entry) or remained at recovery (exit).
	Faults int `json:"faults"`
	// WindowNS is the sliding-window span the count was taken over.
	WindowNS int64 `json:"window_ns,omitempty"`
}

// AlertEvent describes one alert-rule state transition (see Watchdog).
type AlertEvent struct {
	// Rule is the rule's name; State the state entered and Prev the one
	// left.
	Rule  string `json:"rule"`
	State string `json:"state"`
	Prev  string `json:"prev"`
	// Signal, Value and Threshold restate the condition at transition
	// time: the evaluated signal (per-second rate for rate() rules) and
	// the threshold it was compared against.
	Signal    string  `json:"signal"`
	Value     float64 `json:"value"`
	Threshold float64 `json:"threshold"`
	// SinceNS is the simulated time the current condition-true streak
	// began (set while the condition holds, zero otherwise).
	SinceNS int64 `json:"since_ns,omitempty"`
}

// Sink consumes events. Implementations must be safe for concurrent
// Emit calls.
type Sink interface {
	Emit(Event)
	Close() error
}

// JSONLSink writes one JSON object per line. Emissions are buffered;
// Close flushes. Safe for concurrent use and for sharing between
// recorders (esmbench funnels every policy's recorder into one file).
type JSONLSink struct {
	mu  sync.Mutex
	w   *bufio.Writer
	c   io.Closer
	err error
}

// NewJSONLSink returns a sink writing to w. When w is also an
// io.Closer, Close closes it after flushing.
func NewJSONLSink(w io.Writer) *JSONLSink {
	s := &JSONLSink{w: bufio.NewWriter(w)}
	if c, ok := w.(io.Closer); ok {
		s.c = c
	}
	return s
}

// Emit implements Sink. The first encoding or write error is kept and
// returned by Close; later events are dropped.
func (s *JSONLSink) Emit(ev Event) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.err != nil {
		return
	}
	b, err := json.Marshal(ev)
	if err != nil {
		s.err = err
		return
	}
	if _, err := s.w.Write(append(b, '\n')); err != nil {
		s.err = err
	}
}

// Close implements Sink.
func (s *JSONLSink) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.w.Flush(); s.err == nil {
		s.err = err
	}
	if s.c != nil {
		if err := s.c.Close(); s.err == nil {
			s.err = err
		}
	}
	return s.err
}

// CollectSink buffers events in memory, for tests and esmstat.
type CollectSink struct {
	mu     sync.Mutex
	events []Event
}

// Emit implements Sink.
func (s *CollectSink) Emit(ev Event) {
	s.mu.Lock()
	s.events = append(s.events, ev)
	s.mu.Unlock()
}

// Close implements Sink.
func (s *CollectSink) Close() error { return nil }

// Events returns a copy of the collected events.
func (s *CollectSink) Events() []Event {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]Event(nil), s.events...)
}

// AllEventTypes returns every event kind a Recorder can emit, in
// declaration order (EvDecision, which it never emits, is not one).
// Renderer tests iterate it so a newly added kind cannot silently fall
// through to raw-JSON output.
func AllEventTypes() []EventType {
	return []EventType{
		EvDeterminationStart, EvDetermination,
		EvMigrationStart, EvMigrationDone, EvMigrationSkip,
		EvCacheSelect, EvCacheEvict,
		EvPowerOn, EvPowerOff,
		EvReplanTrigger, EvPeriodAdapt,
		EvFault, EvDegrade, EvMigrationFail,
		EvAlert,
	}
}

// ReadEvents decodes a JSONL event log. Blank lines are skipped; a
// malformed line fails with its line number. Lines can be arbitrarily
// long (a cache-select event listing many thousand items easily
// exceeds bufio.Scanner's default limit, which this reader does not
// share).
func ReadEvents(r io.Reader) ([]Event, error) {
	br := bufio.NewReader(r)
	var out []Event
	line := 0
	for {
		b, err := br.ReadBytes('\n')
		line++
		if len(b) > 0 && b[len(b)-1] == '\n' {
			b = b[:len(b)-1]
		}
		if len(b) > 0 && b[len(b)-1] == '\r' {
			b = b[:len(b)-1]
		}
		if len(b) > 0 {
			var ev Event
			if uerr := json.Unmarshal(b, &ev); uerr != nil {
				return nil, fmt.Errorf("obs: event log line %d: %w", line, uerr)
			}
			out = append(out, ev)
		}
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return nil, err
		}
	}
}
