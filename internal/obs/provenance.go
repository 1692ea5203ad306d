// The decision-provenance ledger: the decision log's second sink. The
// event stream says what happened; the ledger says why — it keeps, at
// each determination on the simulated clock, the decision inputs the
// power management function computes and then discards (per-item
// interval estimates, read ratios, P0–P3 classes, candidate placement
// costs) together with the chosen action and its predicted
// joule/latency delta, plus the triggering context of every power
// transition, migration, preload and destage the array executes. Both
// arrive as decision-log records (Telemetry.Log); the ledger encodes
// the kinds it keeps as rows of one fixed column layout.
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

// provMaxRecords bounds the stored rows; on overflow the store keeps
// every other accepted row and doubles its acceptance stride, like the
// flight recorder.
const provMaxRecords = 8192

// provTopPerEnc is how many items per enclosure, by attributed joules,
// RecordAttribution turns into ProvAttrib rows.
const provTopPerEnc = 16

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
func NewProvenance() *Provenance {
	return &Provenance{store: newColStore(provMaxRecords), idleW: 220, spinUpS: 15}
}

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

// Log is the ledger's one entry point for decision-log records: it
// encodes the kinds the ledger keeps as rows and drops the rest. It
// keeps every decision, every power segment (spin-up, on and off),
// completed migrations, injected faults, preload loads (preload
// selections) and write-delay destages (write-delay evictions), the
// cache records one row per item.
func (p *Provenance) Log(t time.Duration, ev Event) {
	if p == nil {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	switch ev.Type {
	case EvDecision:
		p.decision(t, ev.Decision)
	case EvPowerOn, EvPowerOff:
		p.transitions++
		pw := ev.Power
		p.runtime(t, ProvPower, CauseCode(string(pw.Cause)), -1, pw.Enclosure, PowerStateCode(pw.State))
	case EvMigrationDone:
		p.migrations++
		m := ev.Migration
		p.runtime(t, ProvMigration, 0, m.Item, m.Src, m.Dst)
	case EvFault:
		p.faults++
		p.runtime(t, ProvFault, CauseCode(ev.Fault.Kind), -1, ev.Fault.Enclosure, -1)
	case EvCacheSelect, EvCacheEvict:
		// A preload selection is the bulk load and a write-delay
		// eviction the destage; write-delay picks and preload drops
		// execute nothing.
		var kind int
		var cause Cause
		switch {
		case ev.Type == EvCacheSelect && ev.Cache.Function == "preload":
			kind, cause = ProvPreload, CausePreload
		case ev.Type == EvCacheEvict && ev.Cache.Function == "write-delay":
			kind, cause = ProvDestage, CauseFlush
		default:
			return
		}
		code := CauseCode(string(cause))
		for _, it := range ev.Cache.Items {
			p.runtime(t, kind, code, it, -1, -1)
		}
	}
}

// decision encodes one determination-time decision row. Predicted
// deltas for moves are first-order estimates from the recorder's
// electrical constants: packing an item's long-idle seconds onto a
// cold enclosure is predicted to save idleW x interval joules while
// exposing reads to one spin-up stall; promoting it to a hot enclosure
// predicts the inverse trade. Caller holds p.mu.
func (p *Provenance) decision(t time.Duration, d *Decision) {
	if d.Kind == ProvDetermination {
		p.determinations++
	} else {
		p.decisions++
	}
	row := [provNumCols]float64{
		provColKind:      float64(d.Kind),
		provColDet:       float64(d.Det),
		provColCause:     float64(CauseCode(string(d.Cause))),
		provColItem:      float64(d.Item),
		provColClass:     float64(d.Class),
		provColPrevClass: float64(d.PrevClass),
		provColSrc:       float64(d.Src),
		provColDst:       float64(d.Dst),
		provColIntervalS: d.IntervalS,
		provColReadRatio: d.ReadRatio,
		provColCostSrc:   d.CostSrc,
		provColCostDst:   d.CostDst,
	}
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
	p.store.offer(t, row[:])
}

// runtime encodes one row of an action the array executed (det = -1).
// Caller holds p.mu.
func (p *Provenance) runtime(t time.Duration, kind, cause int, item int64, src, dst int) {
	row := emptyProvRow()
	row[provColKind] = float64(kind)
	row[provColDet] = -1
	row[provColCause] = float64(cause)
	row[provColItem] = float64(item)
	row[provColSrc] = float64(src)
	row[provColDst] = float64(dst)
	p.store.offer(t, row[:])
}

// RecordAttribution joins the energy ledger into the stream at end of
// run: for each enclosure, up to provTopPerEnc items by attributed
// joules become ProvAttrib rows.
func (p *Provenance) RecordAttribution(t time.Duration, a *Attribution) {
	if p == nil || a == nil {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, enc := range a.Enclosures {
		n := min(len(enc.ByItem), provTopPerEnc)
		for _, ie := range enc.ByItem[:n] {
			row := emptyProvRow()
			row[provColKind] = ProvAttrib
			row[provColDet] = -1
			row[provColItem] = float64(ie.Item)
			row[provColClass] = float64(ie.Class)
			row[provColSrc] = float64(enc.Enclosure)
			row[provColJoules] = ie.Joules
			p.store.offer(t, row[:])
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
