package replay

import (
	"container/heap"
	"math/rand"
	"testing"
	"time"

	"esm/internal/trace"
)

// refCursor and refCursorHeap are the container/heap reference the
// typed cursorHeap is checked against.
type refCursor struct {
	item  trace.ItemID
	eff   time.Duration
	index int
}

type refCursorHeap []*refCursor

func (h refCursorHeap) Len() int { return len(h) }
func (h refCursorHeap) Less(i, j int) bool {
	if h[i].eff != h[j].eff {
		return h[i].eff < h[j].eff
	}
	return h[i].item < h[j].item
}
func (h refCursorHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i]; h[i].index = i; h[j].index = j }
func (h *refCursorHeap) Push(x any)   { c := x.(*refCursor); c.index = len(*h); *h = append(*h, c) }
func (h *refCursorHeap) Pop() any {
	old := *h
	c := old[len(old)-1]
	c.index = -1
	*h = old[:len(old)-1]
	return c
}

// TestCursorHeapMatchesContainerHeap drives random push, fix-root and
// pop-root operations over (eff, item) keys through the typed heap and
// a container/heap reference. After every operation both must agree on
// the root, and the typed heap must hold exactly the queued items.
// Effective times are drawn from a small range so ties fall through to
// the item order.
func TestCursorHeapMatchesContainerHeap(t *testing.T) {
	const items = 32
	rng := rand.New(rand.NewSource(11))
	queued := make([]bool, items)
	refs := make([]*refCursor, items)
	for i := range refs {
		refs[i] = &refCursor{item: trace.ItemID(i), index: -1}
	}
	var h cursorHeap
	var ref refCursorHeap
	for op := 0; op < 20000; op++ {
		eff := time.Duration(rng.Intn(16))
		switch r := rng.Intn(3); {
		case r == 0 || len(h) == 0:
			i := rng.Intn(items)
			if queued[i] {
				continue
			}
			queued[i] = true
			refs[i].eff = eff
			h.push(cursorKey{eff: eff, item: trace.ItemID(i)})
			heap.Push(&ref, refs[i])
		case r == 1:
			h[0].eff, ref[0].eff = eff, eff
			h.fixRoot()
			heap.Fix(&ref, 0)
		default:
			queued[h[0].item] = false
			h.popRoot()
			heap.Pop(&ref)
		}
		if len(h) != len(ref) {
			t.Fatalf("op %d: typed heap holds %d keys, reference %d", op, len(h), len(ref))
		}
		if len(h) > 0 && (h[0].item != ref[0].item || h[0].eff != ref[0].eff) {
			t.Fatalf("op %d: root (%v, %d), reference (%v, %d)", op, h[0].eff, h[0].item, ref[0].eff, ref[0].item)
		}
		inHeap := make([]bool, items)
		for _, k := range h {
			if inHeap[k.item] || !queued[k.item] {
				t.Fatalf("op %d: item %d is in the heap twice or unqueued", op, k.item)
			}
			inHeap[k.item] = true
		}
	}
}
