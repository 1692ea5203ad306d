package obs

import (
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"time"
)

// near reports a within tiny float rounding of b.
func near(a, b float64) bool {
	scale := math.Max(math.Abs(a), math.Abs(b))
	if scale < 1 {
		scale = 1
	}
	return math.Abs(a-b) <= 1e-9*scale
}

// checkConservation asserts the ledger's core contract: every axis of
// the attribution — per-enclosure items, per-enclosure functions,
// classes, functions — sums back to the powermodel totals exactly (up
// to float rounding).
func checkConservation(t *testing.T, a *Attribution, encEnergy func(int) EnclosureEnergy) {
	t.Helper()
	var total float64
	for _, ea := range a.Enclosures {
		want := encEnergy(ea.Enclosure).Total()
		if !near(ea.TotalJ, want) {
			t.Errorf("enclosure %d TotalJ %v, powermodel %v", ea.Enclosure, ea.TotalJ, want)
		}
		var items, funcs float64
		for _, it := range ea.ByItem {
			items += it.Joules
		}
		for _, j := range ea.ByFunc {
			funcs += j
		}
		if !near(items, want) {
			t.Errorf("enclosure %d item sum %v, powermodel %v", ea.Enclosure, items, want)
		}
		if !near(funcs, want) {
			t.Errorf("enclosure %d func sum %v, powermodel %v", ea.Enclosure, funcs, want)
		}
		total += want
	}
	if !near(a.TotalJ, total) {
		t.Errorf("TotalJ %v, powermodel sum %v", a.TotalJ, total)
	}
	var classes, funcs float64
	for _, j := range a.ByClass {
		classes += j
	}
	for _, j := range a.ByFunc {
		funcs += j
	}
	if !near(classes, total) {
		t.Errorf("class sum %v, powermodel sum %v", classes, total)
	}
	if !near(funcs, total) {
		t.Errorf("func sum %v, powermodel sum %v", funcs, total)
	}
}

// TestAttributionSumsExact hand-feeds a two-enclosure ledger and checks
// conservation plus the proportional splits.
func TestAttributionSumsExact(t *testing.T) {
	var l energyLedger
	// Enclosure 0: items 1 and 2 resident the whole hour, item 1 served
	// 3× the service time of item 2 and twice its bytes; one migration
	// read and one preload burst; item 2 provoked both spin-up attempts.
	l.residency(0, 0, 1, 2<<20)
	l.residency(0, 0, 2, 1<<20)
	l.service(0, 1, FnServing, 30*time.Second, 0)
	l.service(0, 2, FnServing, 10*time.Second, 2)
	l.service(0, 1, FnMigration, 5*time.Second, 0)
	l.service(0, 2, FnPreload, 5*time.Second, 0)
	// Enclosure 1: one resident item, no service at all.
	l.residency(0, 1, 7, 4<<20)

	energies := []EnclosureEnergy{
		{ActiveJ: 1000, IdleJ: 600, OffJ: 200, SpinUpJ: 50},
		{ActiveJ: 0, IdleJ: 300, OffJ: 100, SpinUpJ: 0},
	}
	encEnergy := func(e int) EnclosureEnergy { return energies[e] }
	classOf := func(item int64) uint8 {
		switch item {
		case 1:
			return 0 // P0
		case 2:
			return 3 // P3
		}
		return ClassUnknown
	}
	end := time.Hour
	a := l.attribute(end, energies, classOf)
	checkConservation(t, a, encEnergy)

	e0 := a.Enclosures[0]
	// Active joules split by service seconds: item 1 has 35 of 50
	// seconds, item 2 has 15.
	wantActive1 := 1000 * 35.0 / 50
	wantActive2 := 1000 * 15.0 / 50
	// Spin-up joules all to item 2; idle+off by byte-seconds 2:1.
	wantBG1 := 800 * 2.0 / 3
	wantBG2 := 800 * 1.0 / 3
	got := map[int64]float64{}
	for _, it := range e0.ByItem {
		got[it.Item] = it.Joules
	}
	if !near(got[1], wantActive1+wantBG1) {
		t.Errorf("item 1 joules %v, want %v", got[1], wantActive1+wantBG1)
	}
	if !near(got[2], wantActive2+50+wantBG2) {
		t.Errorf("item 2 joules %v, want %v", got[2], wantActive2+50+wantBG2)
	}
	// Function axis: migration is item 1's 5s share of active, preload
	// item 2's 5s share.
	if !near(e0.ByFunc[FnMigration], 1000*5.0/50) {
		t.Errorf("migration %v", e0.ByFunc[FnMigration])
	}
	if !near(e0.ByFunc[FnPreload], 1000*5.0/50) {
		t.Errorf("preload %v", e0.ByFunc[FnPreload])
	}
	if !near(e0.ByFunc[FnBackground], 800) {
		t.Errorf("background %v", e0.ByFunc[FnBackground])
	}
	// Class axis: item 7 (unknown) carries all of enclosure 1.
	if !near(a.ByClass[4], 400) {
		t.Errorf("unknown class %v, want 400", a.ByClass[4])
	}
	if a.UnattributedJ != 0 {
		t.Errorf("unattributed %v, want 0", a.UnattributedJ)
	}
	// ByItem is sorted by descending joules.
	for i := 1; i < len(e0.ByItem); i++ {
		if e0.ByItem[i].Joules > e0.ByItem[i-1].Joules {
			t.Errorf("ByItem not sorted: %v", e0.ByItem)
		}
	}
}

// TestAttributionFallbacks: energy with no weights to carry it lands on
// UnattributedItem instead of vanishing.
func TestAttributionFallbacks(t *testing.T) {
	var l energyLedger
	// No residency, no service, but the enclosure burned energy in
	// every state.
	energy := EnclosureEnergy{ActiveJ: 10, IdleJ: 20, OffJ: 5, SpinUpJ: 3}
	encEnergy := func(int) EnclosureEnergy { return energy }
	a := l.attribute(time.Hour, []EnclosureEnergy{energy}, func(int64) uint8 { return 0 })
	checkConservation(t, a, encEnergy)
	if !near(a.UnattributedJ, energy.Total()) {
		t.Fatalf("unattributed %v, want %v", a.UnattributedJ, energy.Total())
	}
	// Unattributed energy is always unknown-class, even when classOf
	// would classify real items.
	if !near(a.ByClass[4], energy.Total()) {
		t.Fatalf("unknown class %v, want %v", a.ByClass[4], energy.Total())
	}
	// Active and spin-up joules with no service fall back to serving;
	// idle/off to background.
	if !near(a.ByFunc[FnServing], 13) {
		t.Fatalf("serving %v, want 13", a.ByFunc[FnServing])
	}
	if !near(a.ByFunc[FnBackground], 25) {
		t.Fatalf("background %v, want 25", a.ByFunc[FnBackground])
	}
}

// TestAttributionResidencyWindow: byte-seconds weight idle energy by
// how long each item was resident, not just by final size.
func TestAttributionResidencyWindow(t *testing.T) {
	var l energyLedger
	// Item 1 resident [0, 1h) at 1 MiB; item 2 arrives at 30m with the
	// same size — item 1 holds twice the byte-seconds.
	l.residency(0, 0, 1, 1<<20)
	l.residency(30*time.Minute, 0, 2, 1<<20)
	energy := EnclosureEnergy{IdleJ: 300}
	a := l.attribute(time.Hour, []EnclosureEnergy{energy}, func(int64) uint8 { return ClassUnknown })
	got := map[int64]float64{}
	for _, it := range a.Enclosures[0].ByItem {
		got[it.Item] = it.Joules
	}
	if !near(got[1], 200) || !near(got[2], 100) {
		t.Fatalf("residency split %v, want item1=200 item2=100", got)
	}
	// An item that departs stops accumulating: remove item 2 at 1h,
	// attribute again at 2h — item 2 gains nothing more.
	l.residency(time.Hour, 0, 2, -(1 << 20))
	energy.IdleJ = 600
	a = l.attribute(2*time.Hour, []EnclosureEnergy{energy}, func(int64) uint8 { return ClassUnknown })
	got = map[int64]float64{}
	for _, it := range a.Enclosures[0].ByItem {
		got[it.Item] = it.Joules
	}
	// Byte-seconds: item 1 has 2h, item 2 has 30m → 4:1 of 600 J.
	if !near(got[1], 480) || !near(got[2], 120) {
		t.Fatalf("post-departure split %v, want item1=480 item2=120", got)
	}
}

// TestAttributionRepeatable: attributing twice with a non-decreasing
// end (the esmd live-snapshot pattern) yields consistent, conserved
// results both times.
func TestAttributionRepeatable(t *testing.T) {
	var l energyLedger
	l.residency(0, 0, 1, 1<<20)
	l.service(0, 1, FnServing, 10*time.Second, 0)
	energy := EnclosureEnergy{ActiveJ: 100, IdleJ: 50}
	encEnergy := func(int) EnclosureEnergy { return energy }
	classOf := func(int64) uint8 { return 1 }
	a1 := l.attribute(30*time.Minute, []EnclosureEnergy{energy}, classOf)
	checkConservation(t, a1, encEnergy)
	// More energy accrues; the second snapshot covers it all.
	energy = EnclosureEnergy{ActiveJ: 150, IdleJ: 80}
	a2 := l.attribute(time.Hour, []EnclosureEnergy{energy}, classOf)
	checkConservation(t, a2, encEnergy)
	if a2.TotalJ <= a1.TotalJ {
		t.Fatalf("second snapshot %v not larger than first %v", a2.TotalJ, a1.TotalJ)
	}
}

// TestLedgerMatchesMapReference feeds the ledger and refLedger, the
// map-keyed ledger it replaced, the same seeded calls and requires
// identical attributions: every float bit for bit, every ByItem row.
// The feed covers zero-length service, spin-up attempts that fail
// (several per I/O), items migrating between enclosures and back,
// departures down to zero bytes, an enclosure no item ever lives on,
// UnattributedItem fed directly, fallback splits (energy with no
// weights) and repeated attribution at a non-decreasing end.
func TestLedgerMatchesMapReference(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		const encs, items = 5, 40
		empty := encs - 1 // no item is ever placed here
		var l energyLedger
		ref := newRefLedger(encs)
		home := make([]int, items)
		size := make([]int64, items)
		classes := make([]uint8, items)
		var now time.Duration
		for it := range home {
			home[it] = rng.Intn(empty)
			size[it] = rng.Int63n(8<<20) + 1
			if it%7 == 3 {
				continue // placed later
			}
			l.residency(now, home[it], int64(it), size[it])
			ref.Residency(now, home[it], int64(it), size[it])
		}
		energies := make([]EnclosureEnergy, encs)
		for step := 0; step < 3000; step++ {
			now += time.Duration(rng.Int63n(int64(2 * time.Second)))
			it := rng.Intn(items)
			switch r := rng.Intn(100); {
			case r < 60: // service, sometimes zero-length, sometimes spin-ups
				enc, item := home[it], int64(it)
				if r < 2 {
					item = UnattributedItem
				} else if r < 4 {
					enc = empty
				}
				fn := EnergyFunc(rng.Intn(int(FnBackground)))
				svc := time.Duration(rng.Int63n(int64(20 * time.Millisecond)))
				if rng.Intn(10) == 0 {
					svc = 0
				}
				attempts := 0
				if rng.Intn(20) == 0 {
					attempts = 1 + rng.Intn(3) // failed attempts count too
				}
				l.service(enc, item, fn, svc, attempts)
				ref.Service(enc, item, fn, svc)
				ref.SpinUps(enc, item, fn, attempts)
			case r < 75: // migrate to another enclosure (and later back)
				dst := rng.Intn(empty)
				if dst == home[it] {
					break
				}
				l.residency(now, home[it], int64(it), -size[it])
				ref.Residency(now, home[it], int64(it), -size[it])
				l.residency(now, dst, int64(it), size[it])
				ref.Residency(now, dst, int64(it), size[it])
				home[it] = dst
			case r < 85: // a partial departure or a late placement
				delta := size[it] / int64(1+rng.Intn(4))
				if rng.Intn(2) == 0 {
					delta = -delta
				}
				l.residency(now, home[it], int64(it), delta)
				ref.Residency(now, home[it], int64(it), delta)
			case r < 90: // the item's resident bytes down to zero
				b := ref.enc[home[it]].bytes[int64(it)]
				l.residency(now, home[it], int64(it), -b)
				ref.Residency(now, home[it], int64(it), -b)
			case r < 95:
				classes[it] = uint8(rng.Intn(5))
			default: // a live snapshot of the growing meter readings
				for e := range energies {
					grow := func(p int) float64 {
						if rng.Intn(p) == 0 {
							return 0
						}
						return rng.Float64() * 1e4
					}
					energies[e].ActiveJ += grow(3)
					energies[e].IdleJ += grow(2)
					energies[e].OffJ += grow(3)
					energies[e].SpinUpJ += grow(4)
				}
				classOf := func(item int64) uint8 { return classes[item] }
				for range 1 + rng.Intn(2) { // repeated at the same end, too
					got := l.attribute(now, energies, classOf)
					want := ref.Attribute(now, func(e int) EnclosureEnergy { return energies[e] }, classOf)
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("seed %d step %d: attribution differs from the map reference\ngot  %+v\nwant %+v", seed, step, got, want)
					}
					if len(got.Enclosures[empty].ByItem) == 0 {
						t.Fatalf("seed %d step %d: empty enclosure has no row", seed, step)
					}
				}
			}
		}
	}
}

// refLedger is the map-keyed energy ledger energyLedger replaced, kept
// as the reference its walk order must reproduce: per-enclosure maps
// keyed by (item, function), with every float sum run over the keys
// sorted into (item, fn) order. One change from the original: Attribute
// reads the byte-seconds up to end into a copy instead of moving each
// item's integration point to end, so a live snapshot no longer splits
// the byte-second sums of later attributions.
type refLedger struct {
	enc []*refEncLedger
}

type refItemFn struct {
	item int64
	fn   EnergyFunc
}

type refEncLedger struct {
	svcSec  map[refItemFn]float64
	spinUps map[refItemFn]float64
	bytes   map[int64]int64
	byteSec map[int64]float64
	lastAt  map[int64]time.Duration
}

func newRefLedger(n int) *refLedger {
	l := &refLedger{enc: make([]*refEncLedger, n)}
	for i := range l.enc {
		l.enc[i] = &refEncLedger{
			svcSec:  map[refItemFn]float64{},
			spinUps: map[refItemFn]float64{},
			bytes:   map[int64]int64{},
			byteSec: map[int64]float64{},
			lastAt:  map[int64]time.Duration{},
		}
	}
	return l
}

func (e *refEncLedger) integrate(item int64, to time.Duration) {
	if last, ok := e.lastAt[item]; ok && to > last {
		e.byteSec[item] += float64(e.bytes[item]) * (to - last).Seconds()
	}
	e.lastAt[item] = to
}

func (l *refLedger) Service(enc int, item int64, fn EnergyFunc, svc time.Duration) {
	l.enc[enc].svcSec[refItemFn{item, fn}] += svc.Seconds()
}

func (l *refLedger) SpinUps(enc int, item int64, fn EnergyFunc, attempts int) {
	if attempts > 0 {
		l.enc[enc].spinUps[refItemFn{item, fn}] += float64(attempts)
	}
}

func (l *refLedger) Residency(at time.Duration, enc int, item int64, delta int64) {
	e := l.enc[enc]
	e.integrate(item, at)
	e.bytes[item] += delta
}

func refSortedKeys(w map[refItemFn]float64) []refItemFn {
	keys := make([]refItemFn, 0, len(w))
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

func refSplit(total float64, w map[refItemFn]float64, into map[refItemFn]float64, fallbackFn EnergyFunc) {
	if total == 0 {
		return
	}
	keys := refSortedKeys(w)
	var sum float64
	for _, k := range keys {
		sum += w[k]
	}
	if sum <= 0 {
		into[refItemFn{UnattributedItem, fallbackFn}] += total
		return
	}
	for _, k := range keys {
		into[k] += total * w[k] / sum
	}
}

func (l *refLedger) Attribute(end time.Duration, encEnergy func(enc int) EnclosureEnergy, classOf func(item int64) uint8) *Attribution {
	a := &Attribution{}
	for encID, e := range l.enc {
		byteSec := map[int64]float64{}
		for item, last := range e.lastAt {
			byteSec[item] = e.byteSec[item]
			if end > last {
				byteSec[item] += float64(e.bytes[item]) * (end - last).Seconds()
			}
		}
		energy := encEnergy(encID)
		shares := map[refItemFn]float64{}
		refSplit(energy.ActiveJ, e.svcSec, shares, FnServing)
		refSplit(energy.SpinUpJ, e.spinUps, shares, FnServing)
		bg := map[refItemFn]float64{}
		for item, bs := range byteSec {
			if bs > 0 {
				bg[refItemFn{item, FnBackground}] = bs
			}
		}
		refSplit(energy.IdleJ+energy.OffJ, bg, shares, FnBackground)

		ea := EnclosureAttribution{Enclosure: encID, TotalJ: energy.Total()}
		perItem := map[int64]float64{}
		var items []int64
		for _, k := range refSortedKeys(shares) {
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
