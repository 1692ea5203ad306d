// Streaming record sources: the iterator side of the trace model. A
// Source yields logical records in time order without materializing the
// whole trace; replay, the workload generators and the trace tools
// compose sources (merge, tap, collect) so peak memory stays
// proportional to the number of live streams and items, not records.

package trace

import (
	"bufio"
	"fmt"
	"io"
	"iter"
	"math"
	"math/bits"
	"os"
	"strings"
	"time"
)

// Source streams logical records in non-decreasing time order.
//
// Next returns the next record; ok is false when the stream is done.
// After Next returns ok=false, Err distinguishes a clean end (nil) from
// a decoding or ordering failure. A generator's ItemStream becomes a
// Source through its ItemReader (ItemStream.Open). Sources are
// single-use and not safe for concurrent use: every replay needs its
// own. A source may still be read from another goroutine than its
// consumer's, one goroutine at a time: a ReadAhead reads its source on
// a producer goroutine, so the caller must not touch that source until
// the producer has stopped. replay.Execute reads any source but a
// SliceSource (which only esmbench's sweeps replay) that way when
// GOMAXPROCS allows, and stops the producer before it returns, so the
// caller must not touch the source until Execute returns; MergeRanges
// reads its sources on producers of its own until its Close.
type Source interface {
	Next() (rec LogicalRecord, ok bool)
	Err() error
}

// closeSource releases a source's resources if it has any.
func closeSource(s Source) {
	if c, ok := s.(io.Closer); ok {
		c.Close()
	}
}

// SliceSource adapts a materialized record slice to a Source. The slice
// is only read, so several SliceSources may share one backing slice
// (the concurrent replays of esmbench's sweeps, which collect their
// workload's trace once, do exactly that).
type SliceSource struct {
	recs []LogicalRecord
	pos  int
}

// NewSliceSource returns a Source over recs.
func NewSliceSource(recs []LogicalRecord) *SliceSource {
	return &SliceSource{recs: recs}
}

// Next returns the next record of the slice.
func (s *SliceSource) Next() (LogicalRecord, bool) {
	if s.pos >= len(s.recs) {
		return LogicalRecord{}, false
	}
	r := s.recs[s.pos]
	s.pos++
	return r, true
}

// Err always returns nil: a slice cannot fail.
func (s *SliceSource) Err() error { return nil }

// ItemStream is one data item's lazily generated record sequence, the
// unit the workload generators plan a trace in. Seq yields the item's
// records in time order and is re-iterable: each iteration re-derives
// the same records. From is a lower bound on the time of the first
// record, known without running Seq, so a consumer that reads items on
// their own can leave a stream unstarted until its clock reaches From.
// Open is the only reader of a stream; it checks all of this.
type ItemStream struct {
	Item ItemID
	From time.Duration
	Seq  iter.Seq[LogicalRecord]
}

// seqBatch is how many records an ItemReader's Next pulls from its
// generator per coroutine switch. A switch costs far more than copying a
// record, so batching amortizes the hand-off across the batch; past 32
// records the switch is a few ns per record, while every open reader
// holds its buffer (up to 10,000 at once in a cloud-block merge).
const seqBatch = 32

// Open returns a reader over the stream's records up to limit: the
// stream ends at its first record past limit.
func (s ItemStream) Open(limit time.Duration) *ItemReader {
	return &ItemReader{st: s, limit: limit}
}

// ItemReader reads one ItemStream. It pulls the generator through
// iter.Pull in fills: each resume lets the generator write records
// until the fill is full, so it may run up to one fill ahead of the
// consumer. Generators are pure functions of their seed, so running
// ahead cannot change what they emit.
//
// The reader holds the generator to the stream's contract: each record
// is of the stream's item, not before From and not before the record
// before it. A record that breaks the contract ends the stream, and Err
// describes it, wrapping a *OrderError when the record is out of time
// order.
//
// Fill writes straight into the caller's batch; Next, Err and Close
// make the reader a Source, which serves a merge from a reused buffer
// of seqBatch records. A reader is read one way or the other.
type ItemReader struct {
	st    ItemStream
	limit time.Duration

	next func() (struct{}, bool)
	stop func()
	// dst[:n] are the records the generator wrote in the current fill;
	// count is how many earlier fills delivered.
	dst   []LogicalRecord
	n     int
	count int64
	prev  time.Duration
	done  bool
	err   error

	// buf[pos:bn] is what Next has left of its last fill.
	buf     []LogicalRecord
	pos, bn int
}

// Fill has the generator write its next records into dst, which must
// not be empty, starting the generator on the first call. It returns
// how many it wrote; fewer than len(dst) means the stream has ended.
func (r *ItemReader) Fill(dst []LogicalRecord) int {
	if r.done {
		return 0
	}
	if r.next == nil {
		r.prev = r.st.From
		r.next, r.stop = iter.Pull(r.gen)
	}
	r.dst, r.n = dst, 0
	if _, ok := r.next(); !ok {
		r.done = true
	}
	n := r.n
	r.dst, r.n = nil, 0
	r.count += int64(n)
	return n
}

// gen runs the generator inside the pull coroutine, pausing it each
// time dst fills.
func (r *ItemReader) gen(yield func(struct{}) bool) {
	r.st.Seq(func(rec LogicalRecord) bool {
		if rec.Time < r.prev || rec.Item != r.st.Item {
			r.err = r.fault(rec)
			return false
		}
		if rec.Time > r.limit {
			return false
		}
		r.prev = rec.Time
		r.dst[r.n] = rec
		r.n++
		return r.n < len(r.dst) || yield(struct{}{})
	})
}

// fault describes the stream's bad record rec.
func (r *ItemReader) fault(rec LogicalRecord) error {
	idx := r.count + int64(r.n)
	if rec.Item != r.st.Item {
		return fmt.Errorf("trace: generator record %d is of item %d, not the stream's item %d", idx, rec.Item, r.st.Item)
	}
	err := &OrderError{Format: "generator", Record: idx, Offset: -1, Prev: r.prev, Got: rec.Time}
	if idx == 0 {
		return fmt.Errorf("trace: first generator record before the stream's From: %w", err)
	}
	return err
}

// Next returns the stream's next record. The buffer is made on the
// first call and dropped once the stream ends.
func (r *ItemReader) Next() (LogicalRecord, bool) {
	if r.pos == r.bn {
		if r.done {
			r.buf = nil
			return LogicalRecord{}, false
		}
		if r.buf == nil {
			r.buf = make([]LogicalRecord, seqBatch)
		}
		r.bn, r.pos = r.Fill(r.buf), 0
		if r.bn == 0 {
			return LogicalRecord{}, false
		}
	}
	rec := r.buf[r.pos]
	r.pos++
	return rec, true
}

// Err returns the stream's bad record, described, or nil.
func (r *ItemReader) Err() error { return r.err }

// Close stops the generator, even part-way through a fill, and drops
// Next's buffer; it is safe to call more than once and after the
// stream ended.
func (r *ItemReader) Close() error {
	if r.stop != nil {
		r.stop()
	}
	r.done, r.buf, r.pos, r.bn = true, nil, 0, 0
	return nil
}

// Merged is a k-way merge of already-sorted sources, kept as a
// tournament (loser) tree over the sources' head records. Only one head
// per source is buffered, so merging k streams costs O(k) memory, and
// each record costs one leaf-to-root replay of about log2(k) compares
// with no swaps. Ties break by source index: among simultaneous records
// the lowest-numbered source wins. Merged validates that its output
// is non-decreasing and fails (Err) when an input turns out unsorted.
type Merged struct {
	srcs []Source
	// heads[i] is source i's next record, while it has one.
	heads []LogicalRecord
	// tree[1:k] holds the key of each internal match's loser; tree[0]
	// holds the overall winner's. Source i is leaf k+i, so node n's
	// children are 2n and 2n+1 for any k.
	tree []mergeKey
	// base is the index of srcs[0] among the sources a failure names:
	// nonzero for one range of a MergeRanges merge.
	base int
	// nested marks a merge of MergeRanges' ranges, whose failures
	// already name the failing source; it passes them on as they are.
	nested bool
	prev   time.Duration
	err    error
	init   bool
}

// mergeKey is a source's place in the merge order, (head time,
// exhausted, index), stored in the tree itself so that a replay
// compares the keys it walks instead of fetching each source's head.
type mergeKey struct {
	// t is the head's time with the sign bit flipped, so unsigned order
	// is time order. An exhausted source's head time is maxTime, so it
	// loses every match.
	t uint64
	// ix is the source index, with keyDone set once it is exhausted.
	ix uint64
}

const (
	maxTime = time.Duration(math.MaxInt64)
	keyDone = 1 << 32
)

// lessBit is 1 when a orders before b, else 0. It takes no branch: the
// 128-bit subtraction (a.t, a.ix) - (b.t, b.ix) borrows exactly when a
// orders first. Which of two heads wins a match is a coin toss to a
// branch predictor.
func lessBit(a, b mergeKey) int {
	_, borrow := bits.Sub64(a.ix, b.ix, 0)
	_, borrow = bits.Sub64(a.t, b.t, borrow)
	return int(borrow)
}

// MergeSources merges sorted sources into one time-ordered stream.
// Simultaneous records are ordered by source index.
func MergeSources(srcs ...Source) *Merged {
	return &Merged{srcs: srcs}
}

// MergeRanges merges sorted sources into the stream MergeSources
// yields, on parts goroutines: srcs is cut into parts ranges of
// contiguous indices, each range is merged on a read-ahead producer of
// its own (ReadAhead), and the returned merge merges the ranges in
// range order on the caller's goroutine. With parts below 2, or fewer
// than two sources, it is MergeSources(srcs...).
//
// The order is the flat merge's. The flat merge yields the least head
// by (time, exhausted, index); each range yields the least of its own
// heads by the same key; and the merge of the ranges breaks ties by
// range index. Because the ranges are contiguous, of two simultaneous
// heads in different ranges the one in the lower range has the lower
// source index, so the range holding the flat merge's winner wins, and
// its head is that record. A failure in a range's source therefore
// ends the stream after the same records as in the flat merge, and its
// error names the source's index in srcs, as the flat merge's does. A
// panic there is raised on the caller's goroutine as a *SourcePanic
// with the range producer's stack, after a prefix of the records the
// flat merge yields before it: each merge level drops the record it
// holds when the pull behind it panics.
//
// The producers start at once. Close stops each range's producer
// before it closes that range's sources; a caller that leaves the
// merge before its end must Close it, or the producers stay blocked.
func MergeRanges(parts int, srcs ...Source) *Merged {
	parts = min(parts, len(srcs))
	if parts < 2 {
		return MergeSources(srcs...)
	}
	ranges := make([]Source, parts)
	for r := range parts {
		lo, hi := r*len(srcs)/parts, (r+1)*len(srcs)/parts
		ranges[r] = NewReadAhead(&Merged{srcs: srcs[lo:hi], base: lo})
	}
	return &Merged{srcs: ranges, nested: true}
}

// pull buffers the next head of source k and returns its key, marking
// it exhausted (and closing it) when it ends. A source failure is
// recorded in m.err.
func (m *Merged) pull(k int32) mergeKey {
	rec, ok := m.srcs[k].Next()
	if ok {
		m.heads[k] = rec
		return mergeKey{uint64(rec.Time) ^ 1<<63, uint64(k)}
	}
	if err := m.srcs[k].Err(); err != nil {
		if m.nested {
			m.err = err
		} else {
			m.err = fmt.Errorf("trace: merge source %d: %w", m.base+int(k), err)
		}
	}
	closeSource(m.srcs[k])
	return mergeKey{uint64(maxTime) ^ 1<<63, keyDone | uint64(k)}
}

// start buffers every source's head and plays the initial tournament.
// It reports false when a source fails or there are no sources.
func (m *Merged) start() bool {
	m.init = true
	k := len(m.srcs)
	if k == 0 {
		return false
	}
	m.heads = make([]LogicalRecord, k)
	m.tree = make([]mergeKey, k)
	// win[n] is the winner of the subtree at node n; leaves are k..2k-1.
	win := make([]mergeKey, 2*k)
	for i := range k {
		win[k+i] = m.pull(int32(i))
		if m.err != nil {
			return false
		}
	}
	for n := k - 1; n >= 1; n-- {
		a, b := win[2*n], win[2*n+1]
		if lessBit(b, a) == 1 {
			a, b = b, a
		}
		win[n], m.tree[n] = a, b
	}
	m.tree[0] = win[1]
	return true
}

// Next returns the merged stream's next record.
func (m *Merged) Next() (LogicalRecord, bool) {
	if m.err != nil {
		return LogicalRecord{}, false
	}
	if !m.init && !m.start() || len(m.tree) == 0 {
		return LogicalRecord{}, false
	}
	top := m.tree[0]
	if top.ix&keyDone != 0 {
		return LogicalRecord{}, false
	}
	w := int32(top.ix)
	rec := m.heads[w]
	if rec.Time < m.prev {
		m.err = fmt.Errorf("trace: merge source %d out of order (%v after %v)", m.base+int(w), rec.Time, m.prev)
		return LogicalRecord{}, false
	}
	m.prev = rec.Time
	// A failing source surfaces its error on the next call; rec is
	// still valid.
	c := m.pull(w)
	// Replay the new head from its leaf to the root: at each node the
	// stored loser and the climbing candidate meet, and the winner
	// climbs on.
	for n := (int(w) + len(m.tree)) >> 1; n > 0; n >>= 1 {
		if l := m.tree[n]; lessBit(l, c) == 1 {
			m.tree[n], c = c, l
		}
	}
	m.tree[0] = c
	return rec, true
}

// Err returns the first input failure, or nil.
func (m *Merged) Err() error { return m.err }

// Close releases every underlying source.
func (m *Merged) Close() error {
	for _, s := range m.srcs {
		closeSource(s)
	}
	return nil
}

// Tapped hands every record of a stream to a callback on its way
// through, so one pass can both consume a trace and write or monitor it.
type Tapped struct {
	src Source
	fn  func(LogicalRecord) error
	err error
}

// TapSource passes every record src yields to fn before yielding it.
// An error from fn ends the stream, and Err reports it.
func TapSource(src Source, fn func(LogicalRecord) error) *Tapped {
	return &Tapped{src: src, fn: fn}
}

// Next returns the next record once fn has accepted it.
func (t *Tapped) Next() (LogicalRecord, bool) {
	if t.err != nil {
		return LogicalRecord{}, false
	}
	rec, ok := t.src.Next()
	if !ok {
		return LogicalRecord{}, false
	}
	if t.err = t.fn(rec); t.err != nil {
		return LogicalRecord{}, false
	}
	return rec, true
}

// Err returns fn's failure, else the upstream failure, or nil.
func (t *Tapped) Err() error {
	if t.err != nil {
		return t.err
	}
	return t.src.Err()
}

// CollectSource drains src into a slice.
func CollectSource(src Source) ([]LogicalRecord, error) {
	var recs []LogicalRecord
	for {
		rec, ok := src.Next()
		if !ok {
			break
		}
		recs = append(recs, rec)
	}
	if err := src.Err(); err != nil {
		return nil, err
	}
	return recs, nil
}

// SummarizeSource computes a Summary by streaming src.
func SummarizeSource(src Source) (Summary, error) {
	var s Summary
	seen := make(map[ItemID]struct{})
	for {
		r, ok := src.Next()
		if !ok {
			break
		}
		if s.Records == 0 {
			s.Start = r.Time
			s.End = r.Time
		}
		s.Records++
		if r.Op == OpRead {
			s.Reads++
		} else {
			s.Writes++
		}
		s.Bytes += int64(r.Size)
		if r.Time < s.Start {
			s.Start = r.Time
		}
		if r.Time > s.End {
			s.End = r.Time
		}
		if r.Item > s.MaxItem {
			s.MaxItem = r.Item
		}
		seen[r.Item] = struct{}{}
	}
	if err := src.Err(); err != nil {
		return Summary{}, err
	}
	s.Items = len(seen)
	if s.Records > 0 {
		s.ReadFrac = float64(s.Reads) / float64(s.Records)
	}
	return s, nil
}

// FileSource decodes a trace file in any of the three on-disk formats
// — the binary stream (ESMSTR1), NDJSON or CSV — sniffed from the
// leading bytes: its Source is the format's decoder, a StreamReader or
// a TextReader, so a multi-gigabyte trace replays in O(items) memory.
// OpenFile's FileSource owns the file and closes it.
type FileSource struct {
	Source
	f *os.File
}

// OpenFile opens path as a FileSource. The caller must Close it.
func OpenFile(path string) (*FileSource, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	fs, err := NewFileSource(f)
	if err != nil {
		f.Close()
		return nil, err
	}
	fs.f = f
	return fs, nil
}

// NewFileSource returns a FileSource decoding r. Close is a no-op for
// sources built over a plain reader. Input that opens with an ESM
// binary magic other than the stream's fails with an error naming that
// magic, instead of reaching the CSV parser as garbage.
func NewFileSource(r io.Reader) (*FileSource, error) {
	br := bufio.NewReaderSize(r, 64<<10)
	head, _ := br.Peek(len(streamMagic))
	switch {
	case string(head) == streamMagic:
		return &FileSource{Source: NewStreamReader(br)}, nil
	case len(head) > 0 && head[0] == '{':
		// Self-describing NDJSON: the only text format whose lines start
		// with an object brace.
		return &FileSource{Source: NewNDJSONReader(br)}, nil
	case strings.HasPrefix(string(head), streamMagic[:3]):
		return nil, fmt.Errorf("trace: unsupported binary trace format %q; regenerate the trace with tracegen -format stream", head)
	}
	return &FileSource{Source: NewCSVReader(br)}, nil
}

// Close closes the underlying file, if any.
func (s *FileSource) Close() error {
	if s.f != nil {
		return s.f.Close()
	}
	return nil
}
