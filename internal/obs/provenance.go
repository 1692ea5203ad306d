// The decision-provenance ledger: the decision log's second sink. The
// event stream says what happened; the ledger says why — it keeps, at
// each determination on the simulated clock, the decision inputs the
// power management function computes and then discards (per-item
// interval estimates, read ratios, P0–P3 classes, candidate placement
// costs) together with the chosen action and its predicted
// joule/latency delta, plus the triggering context of every power
// transition, migration, preload and destage the array executes. Both
// arrive as decision-log records (Telemetry.Log); the ledger encodes
// each kind it keeps once, as a ProvRecord row.
//
// The ledger is an event log, not a time series: every row is written
// to its file as one CSV line as it arrives, and the latest rows stay
// in a live tail that counts the rows it lets go. ReadProvenanceCSV
// reads the file back. Like the other surfaces it is nil-safe (a nil
// *Provenance is a valid disabled instance — one pointer check, no
// allocation, on every call), and it is driven by the simulated clock
// from deterministic call sites, so the file is byte-identical across
// reruns.

package obs

import (
	"bufio"
	"cmp"
	"fmt"
	"io"
	"strconv"
	"strings"
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

// provCols is the fixed column order of the ledger CSV after its
// leading t_ns column, the order of ProvRecord's fields; kind through
// dst hold integers. Every record is one row; fields that do not apply
// to a kind hold -1 (ids) or 0 (measures).
var provCols = [...]string{
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

// provHeader is the ledger CSV's header line.
var provHeader = "t_ns," + strings.Join(provCols[:], ",") + "\n"

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

// provTailRows bounds the live tail: the most recent rows a scrape of
// /arrays/<name>/provenance sees. The ledger file is not bounded.
const provTailRows = 8192

// provTopPerEnc is how many items per enclosure, by attributed joules,
// RecordAttribution turns into ProvAttrib rows.
const provTopPerEnc = 16

// ProvenanceSummary is the manifest/status roll-up of one recorder.
type ProvenanceSummary struct {
	// Rows counts every row written; Dropped counts the rows the live
	// tail has let go (the tail holds the other Rows - Dropped).
	Rows           int64 `json:"rows"`
	Dropped        int64 `json:"dropped"`
	Determinations int64 `json:"determinations"`
	Decisions      int64 `json:"decisions"`
	Transitions    int64 `json:"transitions"`
	Migrations     int64 `json:"migrations"`
	Faults         int64 `json:"faults"`
}

// ProvRecord is one ledger row: the unit the recorder writes, the live
// tail holds and ReadProvenanceCSV returns.
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

// Provenance is the decision-provenance recorder. A nil *Provenance is
// a valid disabled instance: every method nil-checks its receiver, so
// the untraced hot path pays one pointer comparison and allocates
// nothing.
type Provenance struct {
	mu sync.Mutex
	// out buffers the CSV stream to dst; err is its first write error.
	out *bufio.Writer
	dst io.Writer
	err error
	// tail is a ring of the latest rows: once it holds provTailRows,
	// next is the slot of the oldest, which the next row overwrites.
	tail []ProvRecord
	next int
	rows int64
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

// NewProvenance builds an enabled recorder streaming its rows as CSV
// to w. The header is written at once, so a ledger that records
// nothing is still a valid file. w may be nil; the live tail is then
// the only output. Close flushes the stream.
func NewProvenance(w io.Writer) *Provenance {
	p := &Provenance{dst: w, idleW: 220, spinUpS: 15}
	if w != nil {
		p.out = bufio.NewWriter(w)
		_, p.err = p.out.WriteString(provHeader)
	}
	return p
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
		p.runtime(t, ProvPower, string(pw.Cause), -1, pw.Enclosure, PowerStateCode(pw.State))
	case EvMigrationDone:
		p.migrations++
		m := ev.Migration
		p.runtime(t, ProvMigration, "", m.Item, m.Src, m.Dst)
	case EvFault:
		p.faults++
		p.runtime(t, ProvFault, ev.Fault.Kind, -1, ev.Fault.Enclosure, -1)
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
		for _, it := range ev.Cache.Items {
			p.runtime(t, kind, string(cause), it, -1, -1)
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
	r := ProvRecord{
		T: t, Kind: d.Kind, Det: d.Det, Cause: provCause(string(d.Cause)),
		Item: d.Item, Class: d.Class, PrevClass: d.PrevClass, Src: d.Src, Dst: d.Dst,
		IntervalS: d.IntervalS, ReadRatio: d.ReadRatio, CostSrc: d.CostSrc, CostDst: d.CostDst,
	}
	if d.Kind == ProvMove {
		dj := p.idleW * d.IntervalS
		dus := p.spinUpS * 1e6 * d.ReadRatio
		if d.ToCold {
			r.PredDJ, r.PredDUS = -dj, dus
		} else {
			r.PredDJ, r.PredDUS = dj, -dus
		}
	}
	p.append(r)
}

// runtime encodes one row of an action the array executed (det = -1).
// Caller holds p.mu.
func (p *Provenance) runtime(t time.Duration, kind int, cause string, item int64, src, dst int) {
	r := unscopedRow(t, kind)
	r.Cause, r.Item, r.Src, r.Dst = provCause(cause), item, src, dst
	p.append(r)
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
			r := unscopedRow(t, ProvAttrib)
			r.Item, r.Class, r.Src, r.Joules = ie.Item, int(ie.Class), enc.Enclosure, ie.Joules
			p.append(r)
		}
	}
}

// unscopedRow is a runtime row (det = -1) with every id unset.
func unscopedRow(t time.Duration, kind int) ProvRecord {
	return ProvRecord{T: t, Kind: kind, Det: -1, Item: -1, Class: -1, PrevClass: -1, Src: -1, Dst: -1}
}

// provCause is the name a cause carries in a row: the one its code
// decodes to, so a row reads the same from the tail and from the file.
func provCause(cause string) string { return CauseName(CauseCode(cause)) }

// append writes one row to the stream and pushes it onto the tail.
// Rows keep reaching the tail and the counters after a write error.
// Caller holds p.mu.
func (p *Provenance) append(r ProvRecord) {
	p.rows++
	if len(p.tail) < provTailRows {
		p.tail = append(p.tail, r)
	} else {
		p.tail[p.next] = r
		p.next = (p.next + 1) % provTailRows
	}
	if p.out != nil && p.err == nil {
		_, p.err = p.out.Write(appendProvRow(p.out.AvailableBuffer(), &r))
	}
}

// Close flushes the stream and closes the writer if it is an
// io.Closer. It returns the first error the stream met; rows logged
// after Close reach only the tail.
func (p *Provenance) Close() error {
	if p == nil {
		return nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.out != nil {
		p.err = cmp.Or(p.err, p.out.Flush())
		p.out = nil
		if c, ok := p.dst.(io.Closer); ok {
			p.err = cmp.Or(p.err, c.Close())
		}
	}
	return p.err
}

// Tail returns the live tail, oldest row first: the last provTailRows
// rows at most.
func (p *Provenance) Tail() []ProvRecord {
	if p == nil {
		return nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]ProvRecord, 0, len(p.tail))
	out = append(out, p.tail[p.next:]...)
	return append(out, p.tail[:p.next]...)
}

// Summary returns the roll-up counters.
func (p *Provenance) Summary() *ProvenanceSummary {
	if p == nil {
		return nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return &ProvenanceSummary{
		Rows:           p.rows,
		Dropped:        p.rows - int64(len(p.tail)),
		Determinations: p.determinations,
		Decisions:      p.decisions,
		Transitions:    p.transitions,
		Migrations:     p.migrations,
		Faults:         p.faults,
	}
}

// appendProvRow appends r as one CSV line: t_ns as an integer, every
// other column in the shortest 'g' form.
func appendProvRow(b []byte, r *ProvRecord) []byte {
	b = strconv.AppendInt(b, int64(r.T), 10)
	for _, v := range [len(provCols)]float64{
		float64(r.Kind), float64(r.Det), float64(CauseCode(r.Cause)), float64(r.Item),
		float64(r.Class), float64(r.PrevClass), float64(r.Src), float64(r.Dst),
		r.IntervalS, r.ReadRatio, r.CostSrc, r.CostDst, r.PredDJ, r.PredDUS, r.Joules,
	} {
		b = append(b, ',')
		b = strconv.AppendFloat(b, v, 'g', -1, 64)
	}
	return append(b, '\n')
}

// ReadProvenanceCSV reads a ledger CSV into its rows. It accepts only
// what the recorder writes — the header, then rows spelled exactly as
// the recorder spells them, each ending in a newline — so whatever it
// reads re-encodes to the same bytes. Any other input is an error that
// names the line, and the column where a field is not a number.
func ReadProvenanceCSV(r io.Reader) ([]ProvRecord, error) {
	br := bufio.NewReader(r)
	var out []ProvRecord
	for line := 1; ; line++ {
		text, err := br.ReadString('\n')
		switch {
		case err == io.EOF && text == "" && line > 1:
			return out, nil
		case err == io.EOF:
			return nil, fmt.Errorf("obs: provenance line %d: missing newline", line)
		case err != nil:
			return nil, fmt.Errorf("obs: provenance line %d: %w", line, err)
		case line == 1 && text != provHeader:
			return nil, fmt.Errorf("obs: provenance line 1: header %q, want %q", strings.TrimSuffix(text, "\n"), strings.TrimSuffix(provHeader, "\n"))
		case line > 1:
			rec, err := parseProvRow(line, text)
			if err != nil {
				return nil, err
			}
			out = append(out, rec)
		}
	}
}

// parseProvRow parses data line number line, newline included.
func parseProvRow(line int, text string) (ProvRecord, error) {
	fields := strings.Split(strings.TrimSuffix(text, "\n"), ",")
	if len(fields) != 1+len(provCols) {
		return ProvRecord{}, fmt.Errorf("obs: provenance line %d: %d fields, want %d", line, len(fields), 1+len(provCols))
	}
	t, err := strconv.ParseInt(fields[0], 10, 64)
	if err != nil {
		return ProvRecord{}, fmt.Errorf("obs: provenance line %d column t_ns: %q is not an integer", line, fields[0])
	}
	var v [len(provCols)]float64
	for c := range v {
		if v[c], err = strconv.ParseFloat(fields[1+c], 64); err != nil {
			return ProvRecord{}, fmt.Errorf("obs: provenance line %d column %s: %q is not a number", line, provCols[c], fields[1+c])
		}
	}
	rec := ProvRecord{
		T: time.Duration(t), Kind: int(v[0]), Det: int64(v[1]), Cause: CauseName(int(v[2])),
		Item: int64(v[3]), Class: int(v[4]), PrevClass: int(v[5]), Src: int(v[6]), Dst: int(v[7]),
		IntervalS: v[8], ReadRatio: v[9], CostSrc: v[10], CostDst: v[11],
		PredDJ: v[12], PredDUS: v[13], Joules: v[14],
	}
	// A fractional id, an unknown cause code or a number spelled
	// otherwise than the recorder spells it re-encodes differently.
	if want := appendProvRow(nil, &rec); string(want) != text {
		return ProvRecord{}, fmt.Errorf("obs: provenance line %d: %q is not a ledger row (the row it reads as is %q)", line, strings.TrimSuffix(text, "\n"), strings.TrimSuffix(string(want), "\n"))
	}
	return rec, nil
}
