// The decision-provenance ledger: the fifth telemetry surface. The
// four earlier surfaces (events, spans, flight recorder, alerts) say
// what happened; the provenance recorder says why — it captures, at
// each determination on the simulated clock, the decision inputs the
// power management function computes and then discards (per-item
// interval estimates, read ratios, P0–P3 classes, candidate placement
// costs) together with the chosen action and its predicted
// joule/latency delta, plus the triggering context of every power
// transition, migration, preload and destage the array executes.
//
// Like the flight recorder it is nil-safe (a nil *Provenance is a
// valid disabled instance — one pointer check, no allocation, on every
// call) and bounded: records land in a columnar store that, when full,
// halves its resolution by keeping every other accepted row and
// doubling the acceptance stride. Everything is driven by the
// simulated clock from deterministic call sites, so the stream is
// byte-identical across reruns.

package obs

import (
	"sync"
	"time"
)

// Record kinds of the provenance ledger, stored in the "kind" column.
const (
	// ProvDetermination is the per-determination summary row: det is
	// the determination number, cause its trigger, src the hot
	// enclosure count, dst the planned move count.
	ProvDetermination = 1
	// ProvMove is a planned migration decided by placement: item,
	// class, src/dst enclosures, features, candidate costs and
	// predicted deltas.
	ProvMove = 2
	// ProvReclass is an item whose I/O-pattern class changed between
	// consecutive determinations (prev_class -> class).
	ProvReclass = 3
	// ProvPreload is a preload decision (det >= 0, chosen by the
	// management function) or a runtime preload bulk read (det < 0).
	ProvPreload = 4
	// ProvDestage is a write-delay decision (det >= 0) or a runtime
	// destage of delayed writes to disk (det < 0).
	ProvDestage = 5
	// ProvPower is a power-state transition: src is the enclosure, dst
	// the state code (0 off, 1 on, 2 spin-up), cause the trigger.
	ProvPower = 6
	// ProvMigration is a completed migration executed by the array.
	ProvMigration = 7
	// ProvFault is an injected fault: src is the enclosure (-1 for
	// battery faults), cause the fault-kind code.
	ProvFault = 8
	// ProvAttrib is an end-of-run energy-attribution row joined from
	// the tracer's ledger: item, class, src enclosure, joules.
	ProvAttrib = 9
)

// ProvKindName names a kind code for reports.
func ProvKindName(kind int) string {
	switch kind {
	case ProvDetermination:
		return "determination"
	case ProvMove:
		return "move"
	case ProvReclass:
		return "reclass"
	case ProvPreload:
		return "preload"
	case ProvDestage:
		return "destage"
	case ProvPower:
		return "power"
	case ProvMigration:
		return "migration"
	case ProvFault:
		return "fault"
	case ProvAttrib:
		return "attrib"
	default:
		return "unknown"
	}
}

// provCols is the fixed column order of the provenance series. Every
// record is one row; fields that do not apply to a kind hold -1 (ids)
// or 0 (measures).
var provCols = []string{
	"kind",       // record kind code (Prov* constants)
	"det",        // determination number; -1 on runtime rows
	"cause",      // cause code (CauseCode); 0 none
	"item",       // item id; -1 when not item-scoped
	"class",      // P0-P3 class; -1 unknown
	"prev_class", // previous class on reclass rows; -1 otherwise
	"src",        // source enclosure (the enclosure on power/fault rows)
	"dst",        // destination enclosure, or power-state code on power rows
	"interval_s", // estimated mean long-interval length, seconds
	"read_ratio", // reads / accesses over the closed period
	"cost_src",   // planned IOPS load on the source enclosure
	"cost_dst",   // planned IOPS load on the destination enclosure
	"pred_dj",    // predicted joule delta of the action (sign: + costs energy)
	"pred_dus",   // predicted response-time delta, microseconds
	"joules",     // ledger-attributed joules (attrib rows)
}

// Column indexes into provCols, for decode.
const (
	provColKind = iota
	provColDet
	provColCause
	provColItem
	provColClass
	provColPrevClass
	provColSrc
	provColDst
	provColIntervalS
	provColReadRatio
	provColCostSrc
	provColCostDst
	provColPredDJ
	provColPredDUS
	provColJoules
	provNumCols
)

// provCauses is the stable cause-code table: code = index + 1, 0 means
// no cause. Fault kinds continue the table after the power causes so
// one column serves both vocabularies.
var provCauses = []string{
	string(CauseIdleTimeout),
	string(CauseDemand),
	string(CauseMigration),
	string(CauseFlush),
	string(CausePreload),
	string(CausePeriodEnd),
	string(CauseTriggerInterval),
	string(CauseTriggerSpinUps),
	"spinup-fail",
	"spinup-exhausted",
	"io-transient",
	"battery-fail",
	"battery-recover",
}

// CauseCode maps a cause (or fault-kind) string to its stable numeric
// code: 0 for empty, -1 for unknown.
func CauseCode(cause string) int {
	if cause == "" {
		return 0
	}
	for i, c := range provCauses {
		if c == cause {
			return i + 1
		}
	}
	return -1
}

// CauseName is the inverse of CauseCode ("" for 0, "?" for unknown).
func CauseName(code int) string {
	if code == 0 {
		return ""
	}
	if code < 1 || code > len(provCauses) {
		return "?"
	}
	return provCauses[code-1]
}

// PowerStateCode maps a power-transition state to its dst-column code.
func PowerStateCode(state string) int {
	switch state {
	case "off":
		return 0
	case "on":
		return 1
	case "spinup":
		return 2
	default:
		return -1
	}
}

// PowerStateName is the inverse of PowerStateCode.
func PowerStateName(code int) string {
	switch code {
	case 0:
		return "off"
	case 1:
		return "on"
	case 2:
		return "spinup"
	default:
		return "?"
	}
}

// ProvenanceOptions configures a Provenance recorder.
type ProvenanceOptions struct {
	// MaxRecords bounds the stored rows; on overflow the store keeps
	// every other accepted row and doubles its acceptance stride, like
	// the flight recorder. Default 8192, forced even, minimum 16.
	MaxRecords int
}

// ProvDecision is one determination-time decision row emitted by the
// management function: a planned move, a reclassification, or a
// preload/write-delay pick, with the per-item features that led to it.
type ProvDecision struct {
	Kind      int // ProvMove, ProvReclass, ProvPreload or ProvDestage
	Det       int64
	Cause     Cause
	Item      int64
	Class     int // P0-P3 after this determination
	PrevClass int // class before; -1 when unchanged/unknown
	Src       int // current enclosure; -1 unknown
	Dst       int // destination enclosure (moves); -1 otherwise
	IntervalS float64
	ReadRatio float64
	CostSrc   float64 // planned IOPS load on Src after placement
	CostDst   float64 // planned IOPS load on Dst after placement
	// ToCold marks a move that packs the item onto a power-managed
	// cold enclosure (predicted to save idle joules at the price of
	// spin-up exposure); false predicts the inverse trade.
	ToCold bool
}

// ProvenanceSummary is the manifest/status roll-up of one recorder.
type ProvenanceSummary struct {
	// Records is the number of rows currently stored (after any
	// resolution halving); Offered counts every row ever offered.
	Records int   `json:"records"`
	Offered int64 `json:"offered"`
	// Stride is the current acceptance stride (1 = lossless so far).
	Stride         int   `json:"stride"`
	Determinations int64 `json:"determinations"`
	Decisions      int64 `json:"decisions"`
	Transitions    int64 `json:"transitions"`
	Migrations     int64 `json:"migrations"`
	Faults         int64 `json:"faults"`
}

// Provenance is the decision-provenance recorder. A nil *Provenance is
// a valid disabled instance: every method nil-checks its receiver, so
// the untraced hot path pays one pointer comparison and allocates
// nothing.
type Provenance struct {
	mu    sync.Mutex
	store colStore
	// idleW and spinUpS are the electrical constants of the predicted
	// deltas: the power-model defaults until ConfigurePower installs
	// the run's own.
	idleW   float64
	spinUpS float64

	determinations int64
	decisions      int64
	transitions    int64
	migrations     int64
	faults         int64
}

// NewProvenance builds an enabled recorder.
func NewProvenance(o ProvenanceOptions) *Provenance {
	return &Provenance{store: newColStore(o.MaxRecords, 8192, 16), idleW: 220, spinUpS: 15}
}

// Enabled reports whether the recorder captures anything; callers use
// it to skip feature computation entirely when provenance is off.
func (p *Provenance) Enabled() bool { return p != nil }

// ConfigurePower overwrites the electrical constants the predicted
// deltas are computed with; replay and fleet call it with the run's
// actual storage config before the clock starts.
func (p *Provenance) ConfigurePower(idleW float64, spinUp time.Duration) {
	if p == nil {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if idleW > 0 {
		p.idleW = idleW
	}
	if spinUp > 0 {
		p.spinUpS = spinUp.Seconds()
	}
}

// record offers one row to the store. Caller holds p.mu.
func (p *Provenance) record(t time.Duration, row *[provNumCols]float64) {
	p.store.offer(t, row[:])
}

// Determination records the per-determination summary row.
func (p *Provenance) Determination(t time.Duration, det int64, cause Cause, nHot, moves int) {
	if p == nil {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.determinations++
	row := emptyProvRow()
	row[provColKind] = ProvDetermination
	row[provColDet] = float64(det)
	row[provColCause] = float64(CauseCode(string(cause)))
	row[provColSrc] = float64(nHot)
	row[provColDst] = float64(moves)
	p.record(t, &row)
}

// Decision records one determination-time decision row. Predicted
// deltas for moves are first-order estimates from the recorder's
// electrical constants: packing an item's long-idle seconds onto a
// cold enclosure is predicted to save idleW x interval joules while
// exposing reads to one spin-up stall; promoting it to a hot enclosure
// predicts the inverse trade.
func (p *Provenance) Decision(t time.Duration, d ProvDecision) {
	if p == nil {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.decisions++
	row := emptyProvRow()
	row[provColKind] = float64(d.Kind)
	row[provColDet] = float64(d.Det)
	row[provColCause] = float64(CauseCode(string(d.Cause)))
	row[provColItem] = float64(d.Item)
	row[provColClass] = float64(d.Class)
	row[provColPrevClass] = float64(d.PrevClass)
	row[provColSrc] = float64(d.Src)
	row[provColDst] = float64(d.Dst)
	row[provColIntervalS] = d.IntervalS
	row[provColReadRatio] = d.ReadRatio
	row[provColCostSrc] = d.CostSrc
	row[provColCostDst] = d.CostDst
	if d.Kind == ProvMove {
		dj := p.idleW * d.IntervalS
		dus := p.spinUpS * 1e6 * d.ReadRatio
		if d.ToCold {
			row[provColPredDJ] = -dj
			row[provColPredDUS] = dus
		} else {
			row[provColPredDJ] = dj
			row[provColPredDUS] = -dus
		}
	}
	p.record(t, &row)
}

// PowerTransition records one enclosure power transition with its
// triggering cause; state is "off", "on" or "spinup".
func (p *Provenance) PowerTransition(t time.Duration, enc int, state string, cause Cause) {
	if p == nil {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.transitions++
	row := emptyProvRow()
	row[provColKind] = ProvPower
	row[provColDet] = -1
	row[provColCause] = float64(CauseCode(string(cause)))
	row[provColSrc] = float64(enc)
	row[provColDst] = float64(PowerStateCode(state))
	p.record(t, &row)
}

// MigrationDone records one completed migration executed by the array.
func (p *Provenance) MigrationDone(t time.Duration, item int64, src, dst int) {
	if p == nil {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.migrations++
	row := emptyProvRow()
	row[provColKind] = ProvMigration
	row[provColDet] = -1
	row[provColItem] = float64(item)
	row[provColSrc] = float64(src)
	row[provColDst] = float64(dst)
	p.record(t, &row)
}

// CacheOp records runtime preload bulk reads (function "preload") and
// write-delay destages (function "write-delay"), one row per item,
// with det = -1 marking them as executions rather than decisions.
func (p *Provenance) CacheOp(t time.Duration, function string, items []int64) {
	if p == nil || len(items) == 0 {
		return
	}
	kind := ProvPreload
	cause := CausePreload
	if function == "write-delay" {
		kind = ProvDestage
		cause = CauseFlush
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, it := range items {
		row := emptyProvRow()
		row[provColKind] = float64(kind)
		row[provColDet] = -1
		row[provColCause] = float64(CauseCode(string(cause)))
		row[provColItem] = float64(it)
		p.record(t, &row)
	}
}

// Fault records one injected fault (enclosure -1 for battery faults).
func (p *Provenance) Fault(t time.Duration, enc int, kind string) {
	if p == nil {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.faults++
	row := emptyProvRow()
	row[provColKind] = ProvFault
	row[provColDet] = -1
	row[provColCause] = float64(CauseCode(kind))
	row[provColSrc] = float64(enc)
	p.record(t, &row)
}

// RecordAttribution joins the energy ledger into the stream at end of
// run: for each enclosure, up to topPerEnc items by attributed joules
// become ProvAttrib rows. Zero topPerEnc means 16.
func (p *Provenance) RecordAttribution(t time.Duration, a *Attribution, topPerEnc int) {
	if p == nil || a == nil {
		return
	}
	if topPerEnc <= 0 {
		topPerEnc = 16
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, enc := range a.Enclosures {
		n := len(enc.ByItem)
		if n > topPerEnc {
			n = topPerEnc
		}
		for _, ie := range enc.ByItem[:n] {
			row := emptyProvRow()
			row[provColKind] = ProvAttrib
			row[provColDet] = -1
			row[provColItem] = float64(ie.Item)
			row[provColClass] = float64(ie.Class)
			row[provColSrc] = float64(enc.Enclosure)
			row[provColJoules] = ie.Joules
			p.record(t, &row)
		}
	}
}

func emptyProvRow() [provNumCols]float64 {
	var row [provNumCols]float64
	row[provColItem] = -1
	row[provColClass] = -1
	row[provColPrevClass] = -1
	row[provColSrc] = -1
	row[provColDst] = -1
	return row
}

// Series snapshots the stored rows as an immutable columnar series —
// the same shape the flight recorder exports, so CSV/JSON writers and
// the HTTP endpoint are shared.
func (p *Provenance) Series() *Series {
	if p == nil {
		return nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.store.series(provCols, 0)
}

// Summary returns the roll-up counters (monotone; compaction does not
// rewind them).
func (p *Provenance) Summary() *ProvenanceSummary {
	if p == nil {
		return nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return &ProvenanceSummary{
		Records:        len(p.store.times),
		Offered:        p.store.offered,
		Stride:         int(p.store.stride),
		Determinations: p.determinations,
		Decisions:      p.decisions,
		Transitions:    p.transitions,
		Migrations:     p.migrations,
		Faults:         p.faults,
	}
}

// ProvRecord is one decoded provenance row, the working form of the
// esmstat explain pipeline.
type ProvRecord struct {
	T         time.Duration
	Kind      int
	Det       int64
	Cause     string
	Item      int64
	Class     int
	PrevClass int
	Src       int
	Dst       int
	IntervalS float64
	ReadRatio float64
	CostSrc   float64
	CostDst   float64
	PredDJ    float64
	PredDUS   float64
	Joules    float64
}

// DecodeProvenance converts a provenance series (fresh from Series or
// read back from CSV) into typed records. It tolerates column reorder
// but requires every provenance column to be present.
func DecodeProvenance(s *Series) ([]ProvRecord, bool) {
	if s == nil {
		return nil, false
	}
	cols := make([][]float64, provNumCols)
	for c, name := range provCols {
		col := s.Column(name)
		if col == nil {
			return nil, false
		}
		cols[c] = col
	}
	out := make([]ProvRecord, len(s.TimesNS))
	for i := range s.TimesNS {
		out[i] = ProvRecord{
			T:         time.Duration(s.TimesNS[i]),
			Kind:      int(cols[provColKind][i]),
			Det:       int64(cols[provColDet][i]),
			Cause:     CauseName(int(cols[provColCause][i])),
			Item:      int64(cols[provColItem][i]),
			Class:     int(cols[provColClass][i]),
			PrevClass: int(cols[provColPrevClass][i]),
			Src:       int(cols[provColSrc][i]),
			Dst:       int(cols[provColDst][i]),
			IntervalS: cols[provColIntervalS][i],
			ReadRatio: cols[provColReadRatio][i],
			CostSrc:   cols[provColCostSrc][i],
			CostDst:   cols[provColCostDst][i],
			PredDJ:    cols[provColPredDJ][i],
			PredDUS:   cols[provColPredDUS][i],
			Joules:    cols[provColJoules][i],
		}
	}
	return out, true
}
