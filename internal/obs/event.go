// The decision log's record: one typed envelope per decision or
// consequential transition. Decision sites hand it to Recorder.Log,
// which encodes every kind as one JSON object per line (JSONL), so a
// saved log or a scrape of its live tail can be rendered, explained,
// diffed or fed to external tooling.

package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"slices"
	"sync"
	"time"
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
	EvDecision EventType = "decision"
	// EvAttribution is one enclosure's end-of-run energy attribution
	// (Attribution payload).
	EvAttribution EventType = "attribution"
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
	Decision      *Decision           `json:"decision,omitempty"`
	Attribution   *AttributionEvent   `json:"attribution,omitempty"`
}

// DecisionKind names what a Decision decided.
type DecisionKind string

// The decision vocabulary.
const (
	// DecisionMove is a migration planned by data placement.
	DecisionMove DecisionKind = "move"
	// DecisionReclass is an item whose I/O-pattern class changed between
	// consecutive determinations (PrevClass -> Class).
	DecisionReclass DecisionKind = "reclass"
	// DecisionPreload and DecisionWriteDelay are the items the cache
	// function picked for preload and for write delay.
	DecisionPreload    DecisionKind = "preload"
	DecisionWriteDelay DecisionKind = "write-delay"
)

// Decision is one determination-time decision of the management
// function, with the per-item features that led to it: the features it
// computes and then discards, the chosen action and, for a move, its
// predicted joule and latency deltas.
type Decision struct {
	Kind DecisionKind `json:"kind"`
	// Det is the number of the determination that decided, Cause what
	// provoked it.
	Det   int64 `json:"det"`
	Cause Cause `json:"cause"`
	Item  int64 `json:"item"`
	// Class is the item's P0-P3 class after this determination and
	// PrevClass the one before (-1 when unknown).
	Class     int `json:"class"`
	PrevClass int `json:"prev_class"`
	// Src is the item's current enclosure (-1 unknown) and Dst a move's
	// destination (-1 otherwise).
	Src int `json:"src"`
	Dst int `json:"dst"`
	// IntervalS is the mean Long Interval over the closed period in
	// seconds, ReadRatio its reads per access.
	IntervalS float64 `json:"interval_s"`
	ReadRatio float64 `json:"read_ratio"`
	// CostSrc and CostDst are the planned IOPS loads on Src and Dst
	// after placement.
	CostSrc float64 `json:"cost_src"`
	CostDst float64 `json:"cost_dst"`
	// ToCold marks a move that packs the item onto a power-managed
	// cold enclosure (predicted to save idle joules at the price of
	// spin-up exposure); false predicts the inverse trade.
	ToCold bool `json:"to_cold"`
	// PredDJ (joules, + costs energy) and PredDUS (response time,
	// microseconds) are a move's predicted deltas. The Recorder fills
	// them in from its electrical constants (see ConfigurePower).
	PredDJ  float64 `json:"pred_dj"`
	PredDUS float64 `json:"pred_dus"`
}

// AttributionEvent is one enclosure's end-of-run energy attribution:
// its top items by joules, joined from the tracer's energy ledger so a
// log ranks root causes by joules (see Recorder.RecordAttribution).
type AttributionEvent struct {
	Enclosure int          `json:"enclosure"`
	Items     []ItemEnergy `json:"items"`
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
// SpinUpTime later, also power_on, logged with the spin-up) or "off"
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

// tailEvents bounds a Tail: the most recent records a scrape of
// /arrays/<name>/provenance sees.
const tailEvents = 8192

// Tail keeps the latest tailEvents lines of a decision log, as the
// Recorder encoded them, for a live scrape (ServeProvenance). The zero
// Tail is empty and ready. Safe for concurrent use.
type Tail struct {
	mu sync.Mutex
	// lines is a ring: once full, at is the slot of the oldest line,
	// which the next one overwrites in the slot's own buffer.
	lines []tailLine
	at    int
	seen  int64
}

// tailLine is one retained line and its record's t_ns.
type tailLine struct {
	t    int64
	line []byte
}

// add retains one encoded line of a record at tns, letting the oldest
// go once the tail holds tailEvents. Once the ring is full, a line
// that fits the buffer of the slot it overwrites is copied there, so
// retaining it allocates nothing.
func (t *Tail) add(tns int64, line []byte) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.seen++
	if len(t.lines) < tailEvents {
		t.lines = append(t.lines, tailLine{tns, append([]byte(nil), line...)})
		return
	}
	s := &t.lines[t.at]
	t.at = (t.at + 1) % tailEvents
	// A buffer far larger than the line is let go, so a long cache
	// listing does not stay pinned after it leaves the tail.
	buf := s.line[:0]
	if cap(buf) > 4*len(line)+1024 {
		buf = nil
	}
	*s = tailLine{tns, append(buf, line...)}
}

// window returns a copy of the retained lines whose records fall in
// [since, until] (until <= 0: no upper bound), oldest first, and how
// many lines the tail has let go.
func (t *Tail) window(since, until time.Duration) (lines []byte, dropped int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for i := range t.lines {
		l := &t.lines[(t.at+i)%len(t.lines)]
		if tt := time.Duration(l.t); tt >= since && (until <= 0 || tt <= until) {
			lines = append(lines, l.line...)
		}
	}
	return lines, t.seen - int64(len(t.lines))
}

// AllEventTypes returns every event kind a Recorder can emit, in
// declaration order. Renderer tests iterate it so a newly added kind
// cannot silently fall through to raw-JSON output.
func AllEventTypes() []EventType {
	return []EventType{
		EvDeterminationStart, EvDetermination,
		EvMigrationStart, EvMigrationDone, EvMigrationSkip,
		EvCacheSelect, EvCacheEvict,
		EvPowerOn, EvPowerOff,
		EvReplanTrigger, EvPeriodAdapt,
		EvFault, EvDegrade, EvMigrationFail,
		EvAlert, EvDecision, EvAttribution,
	}
}

// payloads reports how many payloads ev carries and whether the one
// its Type selects is among them.
func (ev *Event) payloads() (n int, typed bool) {
	for _, p := range [...]struct {
		set   bool
		types []EventType
	}{
		{ev.Determination != nil, []EventType{EvDeterminationStart, EvDetermination}},
		{ev.Migration != nil, []EventType{EvMigrationStart, EvMigrationDone, EvMigrationSkip, EvMigrationFail}},
		{ev.Cache != nil, []EventType{EvCacheSelect, EvCacheEvict}},
		{ev.Power != nil, []EventType{EvPowerOn, EvPowerOff}},
		{ev.Replan != nil, []EventType{EvReplanTrigger}},
		{ev.Period != nil, []EventType{EvPeriodAdapt}},
		{ev.Fault != nil, []EventType{EvFault}},
		{ev.Degrade != nil, []EventType{EvDegrade}},
		{ev.Alert != nil, []EventType{EvAlert}},
		{ev.Decision != nil, []EventType{EvDecision}},
		{ev.Attribution != nil, []EventType{EvAttribution}},
	} {
		if p.set {
			n++
			typed = typed || slices.Contains(p.types, ev.Type)
		}
	}
	return n, typed
}

// ReadEvents decodes a JSONL event log. It accepts only what a Recorder
// writes: lines that each carry the one payload their type selects and
// are spelled exactly as the encoder spells them, each ending in a
// newline. So whatever it reads re-encodes to the same bytes. Any other
// input is an error that names the line. Lines can be arbitrarily long
// (a cache-select event listing many thousand items easily exceeds
// bufio.Scanner's default limit, which this reader does not share).
func ReadEvents(r io.Reader) ([]Event, error) {
	br := bufio.NewReader(r)
	var out []Event
	var re bytes.Buffer
	enc := json.NewEncoder(&re)
	for line := 1; ; line++ {
		b, err := br.ReadBytes('\n')
		switch {
		case err == io.EOF && len(b) == 0:
			return out, nil
		case err == io.EOF:
			return nil, fmt.Errorf("obs: event log line %d: missing newline", line)
		case err != nil:
			return nil, fmt.Errorf("obs: event log line %d: %w", line, err)
		}
		var ev Event
		if err := json.Unmarshal(b, &ev); err != nil {
			return nil, fmt.Errorf("obs: event log line %d: %w", line, err)
		}
		switch n, typed := ev.payloads(); {
		case n > 1:
			return nil, fmt.Errorf("obs: event log line %d: %d payloads, want one", line, n)
		case !typed:
			return nil, fmt.Errorf("obs: event log line %d: no payload for type %q", line, ev.Type)
		}
		// An unknown key, a number spelled otherwise than the encoder
		// spells it or reordered keys re-encode differently.
		re.Reset()
		if err := enc.Encode(&ev); err != nil {
			return nil, fmt.Errorf("obs: event log line %d: %w", line, err)
		}
		if !bytes.Equal(re.Bytes(), b) {
			return nil, fmt.Errorf("obs: event log line %d: not a line of the log (it reads as %q)", line, bytes.TrimSuffix(re.Bytes(), []byte("\n")))
		}
		out = append(out, ev)
	}
}
