package trace

import (
	"cmp"
	"container/heap"
	"fmt"
	"iter"
	"slices"
	"time"
)

// This file keeps the straightforward lazy pipeline the optimized one
// replaced — an unbatched iter.Pull adapter and a container/heap k-way
// merge — as the reference the differential tests compare against.
// The names are exported so the external test package (which drives the
// workload generators) can use them too.

// RefSeqSource is the reference generator adapter: one coroutine switch
// per record.
type RefSeqSource struct {
	next func() (LogicalRecord, bool)
	stop func()
}

// NewRefSeqSource returns the reference adapter over seq.
func NewRefSeqSource(seq iter.Seq[LogicalRecord]) *RefSeqSource {
	next, stop := iter.Pull(seq)
	return &RefSeqSource{next: next, stop: stop}
}

func (s *RefSeqSource) Next() (LogicalRecord, bool) { return s.next() }
func (s *RefSeqSource) Err() error                  { return nil }
func (s *RefSeqSource) Close() error                { s.stop(); return nil }

type refItem struct {
	rec LogicalRecord
	src int
}

type refHeap []refItem

func (h refHeap) Len() int { return len(h) }
func (h refHeap) Less(i, j int) bool {
	if h[i].rec.Time != h[j].rec.Time {
		return h[i].rec.Time < h[j].rec.Time
	}
	return h[i].src < h[j].src
}
func (h refHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x any)   { *h = append(*h, x.(refItem)) }
func (h *refHeap) Pop() any {
	old := *h
	x := old[len(old)-1]
	*h = old[:len(old)-1]
	return x
}

// RefMerged is the reference binary-heap merge, with the same ordering,
// validation and error contract as Merged.
type RefMerged struct {
	srcs []Source
	h    refHeap
	prev time.Duration
	err  error
	init bool
}

// RefMergeSources returns the reference merge over srcs.
func RefMergeSources(srcs ...Source) *RefMerged { return &RefMerged{srcs: srcs} }

func (m *RefMerged) pull(k int) {
	rec, ok := m.srcs[k].Next()
	if !ok {
		if err := m.srcs[k].Err(); err != nil {
			m.err = fmt.Errorf("trace: merge source %d: %w", k, err)
		}
		closeSource(m.srcs[k])
		return
	}
	m.h = append(m.h, refItem{rec: rec, src: k})
}

func (m *RefMerged) Next() (LogicalRecord, bool) {
	if m.err != nil {
		return LogicalRecord{}, false
	}
	if !m.init {
		m.init = true
		for k := range m.srcs {
			m.pull(k)
			if m.err != nil {
				return LogicalRecord{}, false
			}
		}
		heap.Init(&m.h)
	}
	if len(m.h) == 0 {
		return LogicalRecord{}, false
	}
	top := m.h[0]
	if top.rec.Time < m.prev {
		m.err = fmt.Errorf("trace: merge source %d out of order (%v after %v)", top.src, top.rec.Time, m.prev)
		return LogicalRecord{}, false
	}
	m.prev = top.rec.Time
	if rec, ok := m.srcs[top.src].Next(); ok {
		m.h[0] = refItem{rec: rec, src: top.src}
		heap.Fix(&m.h, 0)
	} else {
		if err := m.srcs[top.src].Err(); err != nil {
			m.err = fmt.Errorf("trace: merge source %d: %w", top.src, err)
		}
		heap.Pop(&m.h)
		closeSource(m.srcs[top.src])
	}
	return top.rec, true
}

func (m *RefMerged) Err() error { return m.err }

// refStableSort is the merge's definition for sorted inputs: concatenate
// every input and stable-sort by (Time, source index).
func refStableSort(inputs [][]LogicalRecord) []LogicalRecord {
	type tagged struct {
		rec LogicalRecord
		src int
	}
	var all []tagged
	for k, in := range inputs {
		for _, r := range in {
			all = append(all, tagged{r, k})
		}
	}
	slices.SortStableFunc(all, func(a, b tagged) int {
		return cmp.Or(cmp.Compare(a.rec.Time, b.rec.Time), cmp.Compare(a.src, b.src))
	})
	out := make([]LogicalRecord, len(all))
	for i, t := range all {
		out[i] = t.rec
	}
	return out
}
