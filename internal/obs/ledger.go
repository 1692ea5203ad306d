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
	"iter"
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

// ledgerEntry is one item's attribution inputs on one enclosure.
type ledgerEntry struct {
	enc int
	// svcSec is physical service seconds and spinUps provoked spin-up
	// attempts, per function. Bit fn of svcFed and spinFed is set once
	// fn fed the entry: a fed entry takes its part of the split even
	// at zero weight, as a 0 J share.
	svcSec, spinUps [EnergyFuncCount]float64
	svcFed, spinFed uint8
	// bytes is the resident byte count, byteSec the accumulated
	// byte-seconds and lastAt the integration point.
	bytes   int64
	byteSec float64
	lastAt  time.Duration
}

// byteSecAt returns the byte-seconds accumulated up to t. Only
// residency changes move the integration point, so attributing at any
// number of snapshot times leaves the float sums unchanged.
func (x *ledgerEntry) byteSecAt(t time.Duration) float64 {
	if t > x.lastAt {
		return x.byteSec + float64(x.bytes)*(t-x.lastAt).Seconds()
	}
	return x.byteSec
}

// energyLedger accumulates the attribution inputs, indexed by item:
// items[item+1] holds one entry per enclosure the item touched, and
// items[0] holds UnattributedItem's. Memory grows with the (item,
// enclosure) pairs fed, not with items × enclosures. It is not
// concurrency-safe on its own; the owning Tracer serialises access.
type energyLedger struct {
	items [][]ledgerEntry
}

// entry returns item's entry on enc, adding it on first touch.
func (l *energyLedger) entry(enc int, item int64) *ledgerEntry {
	slot := int(item - UnattributedItem)
	for slot >= len(l.items) {
		l.items = append(l.items, nil)
	}
	es := l.items[slot]
	for i := range es {
		if es[i].enc == enc {
			return &es[i]
		}
	}
	l.items[slot] = append(es, ledgerEntry{enc: enc})
	return &l.items[slot][len(es)]
}

// on yields enc's entries in ItemID order, UnattributedItem's first.
// Attribute sums floats along this walk, so the order fixes every
// share bit for bit.
func (l *energyLedger) on(enc int) iter.Seq2[int64, *ledgerEntry] {
	return func(yield func(int64, *ledgerEntry) bool) {
		for slot, es := range l.items {
			for i := range es {
				if es[i].enc == enc && !yield(int64(slot)+UnattributedItem, &es[i]) {
					return
				}
			}
		}
	}
}

// service records svc of physical service on enc for item, driven by
// fn, and the spin-up attempts it provoked (failed attempts burn
// spin-up energy too).
func (l *energyLedger) service(enc int, item int64, fn EnergyFunc, svc time.Duration, spinUps int) {
	x := l.entry(enc, item)
	x.svcSec[fn] += svc.Seconds()
	x.svcFed |= 1 << fn
	if spinUps > 0 {
		x.spinUps[fn] += float64(spinUps)
		x.spinFed |= 1 << fn
	}
}

// residency records that item's resident footprint on enc changed by
// delta bytes at time at (positive on placement or migration arrival,
// negative on departure).
func (l *energyLedger) residency(at time.Duration, enc int, item int64, delta int64) {
	x := l.entry(enc, item)
	x.byteSec, x.lastAt = x.byteSecAt(at), at
	x.bytes += delta
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

// part returns one entry's part of total split by weights that sum to
// sum: total·w/sum if the entry fed its weight, or all of total to the
// fallback entry when the weights sum to zero or less. ok reports
// whether the entry takes a part at all; a zero total splits nothing.
func part(total, sum, w float64, fed, fallback bool) (j float64, ok bool) {
	switch {
	case total == 0:
		return 0, false
	case sum <= 0:
		return total, fallback
	}
	return total * w / sum, fed
}

// attribute computes the full split as of end. energies holds every
// enclosure's powermodel joules, indexed by enclosure; classOf maps an
// item to its pattern class (return ClassUnknown when unknown). Active
// joules split by service seconds and spin-up joules by attempts, both
// falling back to UnattributedItem under FnServing; idle plus off
// joules split by resident byte-seconds under FnBackground. The ledger
// can be attributed repeatedly with a non-decreasing end (esmd
// snapshots it live).
func (l *energyLedger) attribute(end time.Duration, energies []EnclosureEnergy, classOf func(item int64) uint8) *Attribution {
	a := &Attribution{}
	for enc, e := range energies {
		// The unattributed slot takes the fallbacks, so every
		// enclosure walks it.
		l.entry(enc, UnattributedItem)
		var svcSum, spinSum, bgSum float64
		for _, x := range l.on(enc) {
			for fn := range EnergyFuncCount {
				svcSum += x.svcSec[fn]
				spinSum += x.spinUps[fn]
			}
			if bs := x.byteSecAt(end); bs > 0 {
				bgSum += bs
			}
		}

		ea := EnclosureAttribution{Enclosure: enc, TotalJ: e.Total()}
		for item, x := range l.on(enc) {
			unattributed := item == UnattributedItem
			bs := x.byteSecAt(end)
			var itemJ float64
			var held bool
			for fn := range EnergyFuncCount {
				var j float64
				var ok bool
				add := func(p float64, takes bool) {
					if takes {
						j, ok = j+p, true
					}
				}
				bit := uint8(1) << fn
				add(part(e.ActiveJ, svcSum, x.svcSec[fn], x.svcFed&bit != 0, unattributed && fn == FnServing))
				add(part(e.SpinUpJ, spinSum, x.spinUps[fn], x.spinFed&bit != 0, unattributed && fn == FnServing))
				if fn == FnBackground {
					add(part(e.IdleJ+e.OffJ, bgSum, bs, bs > 0, unattributed))
				}
				if !ok {
					continue
				}
				held = true
				itemJ += j
				ea.ByFunc[fn] += j
				a.ByFunc[fn] += j
				if unattributed {
					a.UnattributedJ += j
				}
			}
			if !held {
				continue
			}
			class := ClassUnknown
			if !unattributed {
				class = classOf(item)
			}
			ea.ByItem = append(ea.ByItem, ItemEnergy{Item: item, Class: class, Joules: itemJ})
			a.ByClass[ClassIndex(class)] += itemJ
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
