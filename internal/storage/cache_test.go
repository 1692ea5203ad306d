package storage

import (
	"container/list"
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
	"time"

	"esm/internal/simclock"
	"esm/internal/trace"
)

func TestLRUBasics(t *testing.T) {
	c := newLRU(3*64<<10, 64<<10) // 3 pages
	k := func(p int64) uint64 { return pageKey(1, p) }
	c.insert(k(1))
	c.insert(k(2))
	c.insert(k(3))
	if !c.contains(k(1)) {
		t.Fatal("page 1 evicted too early")
	}
	// Page 2 is now LRU; inserting page 4 evicts it.
	c.insert(k(4))
	if c.contains(k(2)) {
		t.Fatal("LRU page not evicted")
	}
	if !c.contains(k(1)) || !c.contains(k(3)) || !c.contains(k(4)) {
		t.Fatal("wrong pages evicted")
	}
	if c.len() != 3 {
		t.Fatalf("len %d", c.len())
	}
}

func TestLRUZeroCapacity(t *testing.T) {
	c := newLRU(0, 64<<10)
	c.insert(pageKey(1, 1))
	if c.contains(pageKey(1, 1)) {
		t.Fatal("zero-capacity cache stored a page")
	}
}

func TestLRUReinsertRefreshes(t *testing.T) {
	c := newLRU(2*64<<10, 64<<10)
	c.insert(pageKey(1, 1))
	c.insert(pageKey(1, 2))
	c.insert(pageKey(1, 1)) // refresh
	c.insert(pageKey(1, 3)) // evicts 2, not 1
	if !c.contains(pageKey(1, 1)) || c.contains(pageKey(1, 2)) {
		t.Fatal("refresh on reinsert not honoured")
	}
}

// TestLRUNeverExceedsCapacity is the core accounting invariant.
func TestLRUNeverExceedsCapacity(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		capPages := 1 + rng.Intn(64)
		c := newLRU(int64(capPages)*4096, 4096)
		for i := 0; i < 1000; i++ {
			c.insert(pageKey(trace.ItemID(rng.Intn(4)), rng.Int63n(256)))
			if c.len() > capPages {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// refKey is the unpacked page key of the reference LRU.
type refKey struct {
	item trace.ItemID
	page int64
}

// listLRU is the reference model for the slab LRU: the container/list
// implementation it replaced, keyed by the unpacked (item, page) pair so
// that two pages colliding in the packed key show up as a divergence.
type listLRU struct {
	capPages int
	ll       *list.List
	pages    map[refKey]*list.Element
}

func newListLRU(capPages int) *listLRU {
	return &listLRU{capPages: capPages, ll: list.New(), pages: make(map[refKey]*list.Element)}
}

func (c *listLRU) contains(k refKey) bool {
	el, ok := c.pages[k]
	if ok {
		c.ll.MoveToFront(el)
	}
	return ok
}

func (c *listLRU) insert(k refKey) {
	if c.capPages == 0 {
		return
	}
	if el, ok := c.pages[k]; ok {
		c.ll.MoveToFront(el)
		return
	}
	if c.ll.Len() >= c.capPages {
		back := c.ll.Back()
		c.ll.Remove(back)
		delete(c.pages, back.Value.(refKey))
	}
	c.pages[k] = c.ll.PushFront(k)
}

// order lists the reference's pages from most to least recently used.
func (c *listLRU) order() []refKey {
	var out []refKey
	for el := c.ll.Front(); el != nil; el = el.Next() {
		out = append(out, el.Value.(refKey))
	}
	return out
}

// slabOrder lists the slab LRU's pages from most to least recently used,
// unpacked, after checking that the backward links and the page table
// agree with the forward walk: the table finds every listed key at its
// slot, and holds exactly as many slots as the list has pages.
func slabOrder(t *testing.T, c *lru) []refKey {
	t.Helper()
	unpack := func(k uint64) refKey { return refKey{trace.ItemID(k >> 32), int64(uint32(k))} }
	var fwd, back []refKey
	// The length bounds stop a walk that a broken link sends round a
	// cycle missing the sentinel.
	for i := c.slots[0].next; i != 0 && len(fwd) < len(c.slots); i = c.slots[i].next {
		k := c.slots[i].key
		if pos, ok := c.find(k); !ok || c.table[pos] != i {
			t.Fatalf("table maps key %#x to slot %d (found %v), list has it at %d", k, c.table[pos], ok, i)
		}
		fwd = append(fwd, unpack(k))
	}
	for i := c.slots[0].prev; i != 0 && len(back) < len(c.slots); i = c.slots[i].prev {
		back = append(back, unpack(c.slots[i].key))
	}
	slices.Reverse(back)
	if !slices.Equal(fwd, back) || tableLen(c) != len(fwd) || c.len() != len(fwd) {
		t.Fatalf("slab links disagree: forward %v, backward %v, %d in table, len %d",
			fwd, back, tableLen(c), c.len())
	}
	return fwd
}

// tableLen counts the page table's occupied positions.
func tableLen(c *lru) int {
	n := 0
	for _, i := range c.table {
		if i != 0 {
			n++
		}
	}
	return n
}

// TestLRUMatchesListReference drives random interleavings of contains
// and insert through the slab LRU and the container/list reference,
// with keys at both ends of the item and page ranges, and requires the
// same hit/miss answers and the same recency order after every step.
func TestLRUMatchesListReference(t *testing.T) {
	const pageBytes = 4096
	items := []trace.ItemID{0, 1, math.MaxInt32 - 1, math.MaxInt32}
	pages := []int64{0, 1, 2, 1<<32 - 3, 1<<32 - 2, 1<<32 - 1}
	for seed := int64(0); seed < 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		capPages := int(seed % 4)
		if capPages == 3 {
			capPages = 3 + rng.Intn(20)
		}
		c := newLRU(int64(capPages)*pageBytes, pageBytes)
		ref := newListLRU(capPages)
		for op := 0; op < 400; op++ {
			k := refKey{items[rng.Intn(len(items))], pages[rng.Intn(len(pages))]}
			if rng.Intn(2) == 0 {
				if got, want := c.contains(pageKey(k.item, k.page)), ref.contains(k); got != want {
					t.Fatalf("seed %d op %d: contains(%v) = %v, reference %v", seed, op, k, got, want)
				}
			} else {
				c.insert(pageKey(k.item, k.page))
				ref.insert(k)
			}
			if got, want := slabOrder(t, c), ref.order(); !slices.Equal(got, want) {
				t.Fatalf("seed %d op %d (cap %d): order %v, reference %v", seed, op, capPages, got, want)
			}
		}
	}
}

// checkProbeRuns requires every occupied table position to be reachable
// from its key's home without crossing an empty position: the invariant
// the backward-shift removal keeps in place of tombstones.
func checkProbeRuns(t *testing.T, c *lru) {
	t.Helper()
	mask := len(c.table) - 1
	for pos, i := range c.table {
		if i == 0 {
			continue
		}
		for p := c.home(c.slots[i].key); p != pos; p = (p + 1) & mask {
			if c.table[p] == 0 {
				t.Fatalf("slot %d at position %d is cut off from its home %d by the empty position %d",
					i, pos, c.home(c.slots[i].key), p)
			}
		}
	}
}

// TestLRUTableCollisions drives the page table through its worst case:
// every key shares one of the last two home positions of the full
// table, so probe runs are long and wrap past the table's end, and
// each eviction's removal must shift a wrapped run back. The slab LRU
// must agree with the list reference after every step, and every key
// stay reachable from its home.
func TestLRUTableCollisions(t *testing.T) {
	const pageBytes = 4096
	for _, capPages := range []int{3, 4, 8, 13} {
		c := newLRU(int64(capPages)*pageBytes, pageBytes)
		ref := newListLRU(capPages)
		// The full cache's table size, and the keys homed at its end.
		full := newLRU(int64(capPages)*pageBytes, pageBytes)
		for p := int64(0); p < int64(capPages); p++ {
			full.insert(pageKey(0, p))
		}
		var keys []refKey
		for p := int64(0); len(keys) < 3*capPages; p++ {
			if full.home(pageKey(9, p)) >= len(full.table)-2 {
				keys = append(keys, refKey{9, p})
			}
		}
		rng := rand.New(rand.NewSource(int64(capPages)))
		for op := 0; op < 2000; op++ {
			k := keys[rng.Intn(len(keys))]
			if rng.Intn(3) == 0 {
				if got, want := c.contains(pageKey(k.item, k.page)), ref.contains(k); got != want {
					t.Fatalf("cap %d op %d: contains(%v) = %v, reference %v", capPages, op, k, got, want)
				}
			} else {
				c.insert(pageKey(k.item, k.page))
				ref.insert(k)
			}
			if got, want := slabOrder(t, c), ref.order(); !slices.Equal(got, want) {
				t.Fatalf("cap %d op %d: order %v, reference %v", capPages, op, got, want)
			}
			checkProbeRuns(t, c)
		}
		if len(c.table) != len(full.table) {
			t.Fatalf("cap %d: table has %d positions, the full cache's %d", capPages, len(c.table), len(full.table))
		}
		if 2*c.len() > len(c.table) {
			t.Fatalf("cap %d: %d pages in a %d-position table, load above one half", capPages, c.len(), len(c.table))
		}
	}
}

func TestWriteDelayStateAccounting(t *testing.T) {
	arr, _, _, _ := testArray(t, 1, 1<<20, 1<<20, 1<<20)
	arr.wdelay = &writeDelayState{capBytes: 1000, rate: 0.5}
	w := arr.wdelay
	one, two := &arr.items[1], &arr.items[2]
	if w.absorb(one, 0, 0, 200) {
		t.Fatal("200/1000 dirty should not trigger flush at rate 0.5")
	}
	if !w.absorb(one, 1, 1, 400) {
		t.Fatal("600/1000 dirty should trigger flush at rate 0.5")
	}
	if one.dirtyBytes != 600 {
		t.Fatalf("dirty bytes %d", one.dirtyBytes)
	}
	if _, ok := one.dirtyPages[0]; !ok {
		t.Fatal("dirty page 0 not tracked")
	}
	if _, ok := one.dirtyPages[1]; !ok {
		t.Fatal("dirty page 1 not tracked")
	}
	// A second item's dirty pages survive the first item's destage.
	w.absorb(two, 3, 4, 100)
	n := w.clearItem(one)
	if n != 600 || w.totalDirty != 100 || len(one.dirtyPages) != 0 || len(two.dirtyPages) != 2 {
		t.Fatalf("clear returned %d, state %+v", n, w)
	}
	if arr.readCached(1, 0, 1) {
		t.Fatal("cleared item's pages still read as cached")
	}
	if !arr.readCached(2, 3, 4) || arr.readCached(2, 3, 5) {
		t.Fatal("other item's dirty pages not served exactly")
	}
	if w.clearItem(one) != 0 {
		t.Fatal("double clear returned bytes")
	}
	if n := w.clearItem(two); n != 100 || w.totalDirty != 0 || len(two.dirtyPages) != 0 {
		t.Fatalf("second clear returned %d, state %+v", n, w)
	}
	// The emptied page set is reused: refilling it with as many pages as
	// it held allocates nothing.
	if allocs := testing.AllocsPerRun(100, func() {
		w.absorb(two, 3, 4, 100)
		w.clearItem(two)
	}); allocs != 0 {
		t.Fatalf("re-dirtying a destaged item allocates %.1f per write, want 0", allocs)
	}
}

// TestWriteDelayDirtyInvariant: totalDirty always equals the sum of
// per-item dirty bytes.
func TestWriteDelayDirtyInvariant(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		w := &writeDelayState{capBytes: 1 << 20, rate: 0.5}
		items := make([]itemState, 8)
		for i := 0; i < 500; i++ {
			st := &items[rng.Intn(len(items))]
			if rng.Float64() < 0.2 {
				w.clearItem(st)
			} else {
				p := rng.Int63n(64)
				w.absorb(st, p, p, int32(rng.Intn(4096)+1))
			}
			var sum int64
			for _, st := range items {
				sum += st.dirtyBytes
			}
			if sum != w.totalDirty {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// TestPreloadStateHitTiming checks the preload partition's hit rule
// through the array: a selected item pins once its bulk read is issued,
// and its reads hit the cache from the read's completion on, not
// before; reads of an unselected item never do.
func TestPreloadStateHitTiming(t *testing.T) {
	arr, clk, _, ids := testArray(t, 1, 8<<20, 8<<20)
	arr.SetPreload(ids[:1])
	if !arr.Preloaded(ids[0]) || arr.Preloaded(ids[1]) {
		t.Fatal("pinned flags wrong")
	}
	loadedAt := arr.items[ids[0]].loadedAt
	if loadedAt <= clk.Now() {
		t.Fatalf("load completes at %v, not after its issue at %v", loadedAt, clk.Now())
	}
	// Each read is of a fresh page, so no hit can come from the general
	// LRU.
	var page int64
	read := func(item trace.ItemID, at time.Duration) bool {
		clk.Advance(at)
		page++
		res, err := arr.Submit(trace.LogicalRecord{Time: at, Item: item, Offset: page << 20, Size: 4096, Op: trace.OpRead})
		if err != nil {
			t.Fatal(err)
		}
		return res.CacheHit
	}
	if read(ids[0], loadedAt-1) {
		t.Fatal("hit before load completion")
	}
	if !read(ids[0], loadedAt) {
		t.Fatal("no hit at load completion")
	}
	if read(ids[1], loadedAt+time.Minute) {
		t.Fatal("hit for unpinned item")
	}
}

// TestSubmitSteadyStateAllocs is the allocation gate of the cache: once
// the general LRU is full, read misses that evict, read hits and
// non-delayed writes must not allocate. A new page reuses the evicted
// tail slot and its packed key needs no boxing.
func TestSubmitSteadyStateAllocs(t *testing.T) {
	const capPages = 64
	cfg := DefaultConfig(1)
	cfg.CacheBytes = cfg.PreloadCacheBytes + cfg.WriteDelayCacheBytes + capPages*cfg.CachePageBytes
	cat := trace.NewCatalog()
	item := cat.Add("hot", 1<<30)
	arr, err := New(cfg, &simclock.Clock{}, &simclock.EventQueue{}, cat)
	if err != nil {
		t.Fatal(err)
	}
	if err := arr.Place(item, 0); err != nil {
		t.Fatal(err)
	}
	submit := func(page int64, op trace.Op) Result {
		res, err := arr.Submit(trace.LogicalRecord{Item: item, Offset: page * cfg.CachePageBytes, Size: 4096, Op: op})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	// Cycling over twice the capacity makes every first read a miss
	// that evicts the least recently used page.
	var page int64
	step := func() {
		page = (page + 1) % (2 * capPages)
		if submit(page, trace.OpRead).CacheHit {
			t.Fatal("cycling read hit; the gate measures the wrong path")
		}
		if !submit(page, trace.OpRead).CacheHit {
			t.Fatal("re-read missed")
		}
		submit(page, trace.OpWrite)
	}
	for i := 0; i < 4*capPages; i++ {
		step()
	}
	if n := arr.general.len(); n != capPages {
		t.Fatalf("general LRU holds %d pages, want it full at %d", n, capPages)
	}
	if allocs := testing.AllocsPerRun(1000, step); allocs != 0 {
		t.Fatalf("steady-state submit allocates %.2f per miss/hit/write step, want 0", allocs)
	}
}
