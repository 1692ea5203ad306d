// The partitioned battery-backed storage cache: general read LRU,
// preload pinning, and write-delay dirty tracking.

package storage

import (
	"math"

	"esm/internal/trace"
)

// pageKey packs a page of an item into the general LRU's 64-bit key:
// the item in the high word, the page index in the low. Items are
// non-negative int32s and pageSpan admits only pages in [0, 2^32), so
// no two pages share a key.
func pageKey(item trace.ItemID, page int64) uint64 {
	return uint64(uint32(item))<<32 | uint64(uint32(page))
}

// lruSlot is one cached page: its key and its neighbours in recency
// order, as slab indices.
type lruSlot struct {
	key        uint64
	prev, next int32
}

// lru is a fixed-capacity page cache with least-recently-used eviction.
// Its pages live in one slab, threaded into a circular recency list
// through sentinel slot 0 (next: most, prev: least recently used), and
// are found through an open-addressing table of slab slots. The slab
// fills up to capPages pages and the table grows with it; after that
// each new page reuses the evicted slot in place, so a full cache
// allocates nothing.
type lru struct {
	capPages int
	slots    []lruSlot
	// table is a power-of-two hash table of slab slots, keyed by the
	// slot's page key, with linear probing; 0 marks an empty position
	// (slot 0 is the sentinel, never a page). It doubles while the slab
	// fills, keeping its load at most one half. A removal shifts the
	// rest of its probe run back rather than leaving a tombstone, so
	// every key stays reachable from its home position without
	// crossing an empty one.
	table []int32
	// shift turns a key's 64-bit hash into its home position: the top
	// log2(len(table)) bits.
	shift uint
}

// minTableBits sizes the empty cache's table (8 positions).
const minTableBits = 3

func newLRU(capBytes, pageBytes int64) *lru {
	capPages := min(max(capBytes/pageBytes, 0), math.MaxInt32-1) // int32 slab indices
	return &lru{
		capPages: int(capPages),
		slots:    make([]lruSlot, 1),
		table:    make([]int32, 1<<minTableBits),
		shift:    64 - minTableBits,
	}
}

// home returns the table position k's probe starts at: the top bits of
// a multiplicative (Fibonacci) hash, which mixes the item and page
// words of the packed key.
func (c *lru) home(k uint64) int { return int(k * 0x9E3779B97F4A7C15 >> c.shift) }

// find returns the table position holding k (ok) or, when k is absent,
// the empty position that ends its probe.
func (c *lru) find(k uint64) (pos int, ok bool) {
	mask := len(c.table) - 1
	for pos = c.home(k); ; pos = (pos + 1) & mask {
		switch i := c.table[pos]; {
		case i == 0:
			return pos, false
		case c.slots[i].key == k:
			return pos, true
		}
	}
}

// remove empties table position pos, moving each later entry of the
// probe run whose path crosses the hole back into it.
func (c *lru) remove(pos int) {
	mask := len(c.table) - 1
	for j := (pos + 1) & mask; c.table[j] != 0; j = (j + 1) & mask {
		// The entry at j may fill the hole only if the hole lies on its
		// probe path, from its home to j.
		if i := c.table[j]; (j-c.home(c.slots[i].key))&mask >= (j-pos)&mask {
			c.table[pos] = i
			pos = j
		}
	}
	c.table[pos] = 0
}

// grow doubles the table and re-places every cached page.
func (c *lru) grow() {
	c.table = make([]int32, 2*len(c.table))
	c.shift--
	for i := 1; i < len(c.slots); i++ {
		pos, _ := c.find(c.slots[i].key)
		c.table[pos] = int32(i)
	}
}

// contains reports whether the page is cached, refreshing its recency.
func (c *lru) contains(k uint64) bool {
	pos, ok := c.find(k)
	if ok {
		i := c.table[pos]
		c.unlink(i)
		c.pushFront(i)
	}
	return ok
}

// insert adds the page, evicting the least recently used page if full.
func (c *lru) insert(k uint64) {
	if c.capPages == 0 || c.contains(k) {
		return
	}
	i := c.slots[0].prev
	if c.len() < c.capPages {
		if 2*(c.len()+1) > len(c.table) {
			c.grow()
		}
		i = int32(len(c.slots))
		c.slots = append(c.slots, lruSlot{})
	} else {
		c.unlink(i)
		pos, _ := c.find(c.slots[i].key)
		c.remove(pos)
	}
	// Probe after any removal: the backward shift may have opened an
	// earlier empty position on k's path.
	pos, _ := c.find(k)
	c.slots[i].key = k
	c.table[pos] = i
	c.pushFront(i)
}

// unlink takes slot i out of the recency list.
func (c *lru) unlink(i int32) {
	s := c.slots[i]
	c.slots[s.prev].next, c.slots[s.next].prev = s.next, s.prev
}

// pushFront links slot i in as the most recently used.
func (c *lru) pushFront(i int32) {
	head := c.slots[0].next
	c.slots[i].prev, c.slots[i].next = 0, head
	c.slots[head].prev, c.slots[0].next = i, i
}

// len returns the number of cached pages.
func (c *lru) len() int { return len(c.slots) - 1 }

// preloadState is the preload partition's budget. Which items are
// pinned, and when their load completes, lives on each item's state.
type preloadState struct {
	capBytes  int64
	usedBytes int64
}

// release returns size bytes of an unpinned item to the budget.
func (p *preloadState) release(size int64) {
	p.usedBytes -= size
	if p.usedBytes < 0 {
		p.usedBytes = 0
	}
}

// writeDelayState is the write-delay partition's budget and destage
// trigger. Which items are selected, and their dirty bytes and pages,
// live on each item's state.
type writeDelayState struct {
	capBytes   int64
	rate       float64
	totalDirty int64
}

// absorb records a delayed write to st and reports whether the
// dirty-block rate now forces a bulk destage. The write's size counts
// in full even where it rewrites pages already dirty. A write of no
// bytes dirties no page: an item has dirty pages iff it has dirty
// bytes, which is what lets destage skip items without them.
func (w *writeDelayState) absorb(st *itemState, firstPage, lastPage int64, size int32) bool {
	if size <= 0 {
		return false
	}
	st.dirtyBytes += int64(size)
	w.totalDirty += int64(size)
	if st.dirtyPages == nil {
		st.dirtyPages = make(map[int64]struct{})
	}
	for p := firstPage; p <= lastPage; p++ {
		st.dirtyPages[p] = struct{}{}
	}
	return float64(w.totalDirty) >= w.rate*float64(w.capBytes)
}

// clearItem drops the dirty state of one item (after its destage) and
// returns how many bytes were destaged. The page set is emptied in
// place, so the item's next delayed writes reuse it.
func (w *writeDelayState) clearItem(st *itemState) int64 {
	n := st.dirtyBytes
	if n == 0 {
		return 0
	}
	st.dirtyBytes = 0
	w.totalDirty -= n
	clear(st.dirtyPages)
	return n
}
