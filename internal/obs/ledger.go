// The energy-attribution ledger: splits each enclosure's integrated
// powermodel joules across the data items resident on it and the
// management functions that drove it, so a run's "energy saved" (or
// spent) is explainable per item, per logical I/O pattern class and
// per function instead of being one opaque total.
//
// Attribution is proportional and conservative: active joules are
// split by each item's share of physical service time, spin-up joules
// by each item's share of provoked spin-up attempts, and idle/off
// joules by each item's share of resident byte-seconds. Every split
// distributes the enclosure's exact accumulator total, so the
// attributed joules of one enclosure always sum back to its powermodel
// reading (up to float rounding).

package obs

import (
	"sort"
	"time"
)

// EnergyFunc names the management function an energy share is
// attributed to.
type EnergyFunc uint8

// The attribution functions: application serving, data-item migration,
// preload bulk reads, write-delay destaging, and the background bucket
// (idle/off residency, attributable to no single function).
const (
	FnServing EnergyFunc = iota
	FnMigration
	FnPreload
	FnDestage
	FnBackground
	EnergyFuncCount
)

// String returns the function name.
func (f EnergyFunc) String() string {
	switch f {
	case FnServing:
		return "serving"
	case FnMigration:
		return "migration"
	case FnPreload:
		return "preload"
	case FnDestage:
		return "destage"
	case FnBackground:
		return "background"
	default:
		return "unknown"
	}
}

// UnattributedItem is the pseudo item id charged with energy no real
// item can carry (an enclosure that burned idle watts while holding no
// tracked resident bytes, or active residency with no tracked service).
const UnattributedItem int64 = -1

// ClassUnknown marks an item whose logical I/O pattern class has not
// been determined (yet).
const ClassUnknown uint8 = 255

type itemFn struct {
	item int64
	fn   EnergyFunc
}

// encLedger is the streaming per-enclosure attribution state.
type encLedger struct {
	// svcSec is physical service seconds per item and function.
	svcSec map[itemFn]float64
	// spinUps counts provoked spin-up attempts per item and function.
	spinUps map[itemFn]float64
	// bytes is the currently resident byte count per item; byteSec the
	// accumulated byte-seconds; lastAt the per-item integration point.
	bytes   map[int64]int64
	byteSec map[int64]float64
	lastAt  map[int64]time.Duration
}

func newEncLedger() *encLedger {
	return &encLedger{
		svcSec:  map[itemFn]float64{},
		spinUps: map[itemFn]float64{},
		bytes:   map[int64]int64{},
		byteSec: map[int64]float64{},
		lastAt:  map[int64]time.Duration{},
	}
}

func (e *encLedger) integrate(item int64, to time.Duration) {
	if last, ok := e.lastAt[item]; ok && to > last {
		e.byteSec[item] += float64(e.bytes[item]) * (to - last).Seconds()
	}
	e.lastAt[item] = to
}

// EnergyLedger accumulates the attribution inputs. It is not
// concurrency-safe on its own; the owning Tracer serialises access.
type EnergyLedger struct {
	enc []*encLedger
}

// NewEnergyLedger returns a ledger over n enclosures.
func NewEnergyLedger(n int) *EnergyLedger {
	l := &EnergyLedger{enc: make([]*encLedger, n)}
	for i := range l.enc {
		l.enc[i] = newEncLedger()
	}
	return l
}

func (l *EnergyLedger) of(enc int) *encLedger {
	for enc >= len(l.enc) {
		l.enc = append(l.enc, newEncLedger())
	}
	return l.enc[enc]
}

// Service records svc seconds of physical service on enc for item,
// driven by fn.
func (l *EnergyLedger) Service(enc int, item int64, fn EnergyFunc, svc time.Duration) {
	l.of(enc).svcSec[itemFn{item, fn}] += svc.Seconds()
}

// SpinUps records attempts spin-up attempts on enc provoked by item
// through fn (failed attempts burn spin-up energy too).
func (l *EnergyLedger) SpinUps(enc int, item int64, fn EnergyFunc, attempts int) {
	if attempts > 0 {
		l.of(enc).spinUps[itemFn{item, fn}] += float64(attempts)
	}
}

// Residency records that item's resident footprint on enc changed by
// delta bytes at time at (positive on placement or migration arrival,
// negative on departure).
func (l *EnergyLedger) Residency(at time.Duration, enc int, item int64, delta int64) {
	e := l.of(enc)
	e.integrate(item, at)
	e.bytes[item] += delta
}

// EnclosureEnergy is one enclosure's integrated joules by power state,
// as read from its powermodel accumulator.
type EnclosureEnergy struct {
	ActiveJ float64 `json:"active_j"`
	IdleJ   float64 `json:"idle_j"`
	OffJ    float64 `json:"off_j"`
	SpinUpJ float64 `json:"spinup_j"`
}

// Total returns the summed joules.
func (e EnclosureEnergy) Total() float64 { return e.ActiveJ + e.IdleJ + e.OffJ + e.SpinUpJ }

// ItemEnergy is one item's attributed share.
type ItemEnergy struct {
	Item   int64   `json:"item"`
	Class  uint8   `json:"class"`
	Joules float64 `json:"joules"`
}

// EnclosureAttribution is the per-enclosure split.
type EnclosureAttribution struct {
	Enclosure int     `json:"enclosure"`
	TotalJ    float64 `json:"total_j"`
	// ByItem is sorted by descending joules.
	ByItem []ItemEnergy `json:"by_item"`
	// ByFunc is indexed by EnergyFunc.
	ByFunc [EnergyFuncCount]float64 `json:"by_func"`
}

// Attribution is the full energy split of a run: per enclosure, rolled
// up per item, per pattern class (P0–P3 plus unknown) and per
// management function. Every axis sums to TotalJ.
type Attribution struct {
	TotalJ     float64                  `json:"total_j"`
	Enclosures []EnclosureAttribution   `json:"enclosures"`
	ByClass    [5]float64               `json:"by_class"` // P0..P3, [4] = unknown
	ByFunc     [EnergyFuncCount]float64 `json:"by_func"`
	// UnattributedJ is the share charged to no real item (already
	// included in TotalJ and ByClass's unknown bucket).
	UnattributedJ float64 `json:"unattributed_j"`
}

// ClassIndex maps a pattern class byte to its ByClass index.
func ClassIndex(class uint8) int {
	if class > 3 {
		return 4
	}
	return int(class)
}

// ClassName returns "P0".."P3" or "unknown" for a ByClass index.
func ClassName(i int) string {
	if i >= 0 && i < 4 {
		return string([]byte{'P', byte('0' + i)})
	}
	return "unknown"
}

// sortedKeys returns w's keys in (item, fn) order. Attribution sums
// floats while walking these maps; a fixed iteration order makes the
// computed shares bit-for-bit reproducible across runs, where raw map
// order would perturb the last ULP from run to run.
func sortedKeys(w map[itemFn]float64) []itemFn {
	keys := make([]itemFn, 0, len(w))
	for k := range w {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].item != keys[j].item {
			return keys[i].item < keys[j].item
		}
		return keys[i].fn < keys[j].fn
	})
	return keys
}

// split distributes total proportionally to the weights in w, charging
// the remainder (all of it, when w is empty or sums to zero) to
// UnattributedItem under fallbackFn.
func split(total float64, w map[itemFn]float64, into map[itemFn]float64, fallbackFn EnergyFunc) {
	if total == 0 {
		return
	}
	keys := sortedKeys(w)
	var sum float64
	for _, k := range keys {
		sum += w[k]
	}
	if sum <= 0 {
		into[itemFn{UnattributedItem, fallbackFn}] += total
		return
	}
	for _, k := range keys {
		into[k] += total * w[k] / sum
	}
}

// Attribute integrates residency up to end and computes the full
// split. encEnergy returns the powermodel joules of each enclosure;
// classOf maps an item to its pattern class (return ClassUnknown when
// unknown). The ledger can be attributed repeatedly with a
// non-decreasing end (esmd snapshots it live).
func (l *EnergyLedger) Attribute(end time.Duration, encEnergy func(enc int) EnclosureEnergy, classOf func(item int64) uint8) *Attribution {
	a := &Attribution{}
	for encID, e := range l.enc {
		for item := range e.bytes {
			e.integrate(item, end)
		}
		energy := encEnergy(encID)
		shares := map[itemFn]float64{}
		split(energy.ActiveJ, e.svcSec, shares, FnServing)
		split(energy.SpinUpJ, e.spinUps, shares, FnServing)
		// Idle and off residency belong to the resident data as a
		// whole, under the background function.
		bg := map[itemFn]float64{}
		for item, bs := range e.byteSec {
			if bs > 0 {
				bg[itemFn{item, FnBackground}] = bs
			}
		}
		split(energy.IdleJ+energy.OffJ, bg, shares, FnBackground)

		ea := EnclosureAttribution{Enclosure: encID, TotalJ: energy.Total()}
		perItem := map[int64]float64{}
		var items []int64
		for _, k := range sortedKeys(shares) {
			j := shares[k]
			ea.ByFunc[k.fn] += j
			a.ByFunc[k.fn] += j
			if _, seen := perItem[k.item]; !seen {
				items = append(items, k.item)
			}
			perItem[k.item] += j
			if k.item == UnattributedItem {
				a.UnattributedJ += j
			}
		}
		for _, item := range items {
			j := perItem[item]
			class := ClassUnknown
			if item != UnattributedItem {
				class = classOf(item)
			}
			ea.ByItem = append(ea.ByItem, ItemEnergy{Item: item, Class: class, Joules: j})
			a.ByClass[ClassIndex(class)] += j
		}
		sort.Slice(ea.ByItem, func(i, j int) bool {
			if ea.ByItem[i].Joules != ea.ByItem[j].Joules {
				return ea.ByItem[i].Joules > ea.ByItem[j].Joules
			}
			return ea.ByItem[i].Item < ea.ByItem[j].Item
		})
		a.Enclosures = append(a.Enclosures, ea)
		a.TotalJ += ea.TotalJ
	}
	return a
}
