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
// own. replay.Execute may
// read any source but a SliceSource (which only esmbench's sweeps
// replay) from a goroutine of its own, so the caller must not touch
// the source until Execute returns.
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
	// heads[i] is source i's next record. An exhausted source's head
	// time is maxTime and its done flag is set, so it loses every match.
	heads []LogicalRecord
	done  []bool
	// tree[1:k] holds the loser of each internal match; tree[0] holds
	// the overall winner. Source i is leaf k+i, so node n's children
	// are 2n and 2n+1 for any k.
	tree []int32
	prev time.Duration
	err  error
	init bool
}

const maxTime = time.Duration(math.MaxInt64)

// MergeSources merges sorted sources into one time-ordered stream.
// Simultaneous records are ordered by source index.
func MergeSources(srcs ...Source) *Merged {
	return &Merged{srcs: srcs}
}

// less orders sources by (head time, exhausted, index): a total order,
// so the tree's winner is the same head a heap would surface.
func (m *Merged) less(a, b int32) bool {
	ta, tb := m.heads[a].Time, m.heads[b].Time
	if ta != tb {
		return ta < tb
	}
	if ta == maxTime && m.done[a] != m.done[b] {
		return m.done[b]
	}
	return a < b
}

// pull buffers the next head of source k, marking it exhausted (and
// closing it) when it ends. A source failure is recorded in m.err.
func (m *Merged) pull(k int32) {
	rec, ok := m.srcs[k].Next()
	if ok {
		m.heads[k] = rec
		return
	}
	if err := m.srcs[k].Err(); err != nil {
		m.err = fmt.Errorf("trace: merge source %d: %w", k, err)
	}
	m.heads[k].Time, m.done[k] = maxTime, true
	closeSource(m.srcs[k])
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
	m.done = make([]bool, k)
	m.tree = make([]int32, k)
	for i := range m.srcs {
		m.pull(int32(i))
		if m.err != nil {
			return false
		}
	}
	// win[n] is the winner of the subtree at node n; leaves are k..2k-1.
	win := make([]int32, 2*k)
	for i := range k {
		win[k+i] = int32(i)
	}
	for n := k - 1; n >= 1; n-- {
		a, b := win[2*n], win[2*n+1]
		if m.less(b, a) {
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
	w := m.tree[0]
	if m.done[w] {
		return LogicalRecord{}, false
	}
	rec := m.heads[w]
	if rec.Time < m.prev {
		m.err = fmt.Errorf("trace: merge source %d out of order (%v after %v)", w, rec.Time, m.prev)
		return LogicalRecord{}, false
	}
	m.prev = rec.Time
	// A failing source surfaces its error on the next call; rec is
	// still valid.
	m.pull(w)
	// Replay the new head from its leaf to the root: at each node the
	// stored loser and the climbing candidate meet, and the winner
	// climbs on.
	for n := (int(w) + len(m.tree)) >> 1; n > 0; n >>= 1 {
		if l := m.tree[n]; m.less(l, w) {
			m.tree[n], w = w, l
		}
	}
	m.tree[0] = w
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

// fileWindow is how many decoded records a FileSource holds: one
// refill decodes a window's worth, so the per-record cost of Next is an
// index into it. It is odd so that timing every 64th Next, as the
// benchmark's trace.next_ns does, meets refills at their true rate of
// one call in fileWindow; a multiple of 64 would put a refill into
// every fourth timed call.
const fileWindow = 255

// FileSource incrementally decodes a trace file in any of the three
// on-disk formats — the binary stream (ESMSTR1), NDJSON or CSV —
// detected from the leading bytes. Decoding is incremental: a
// multi-gigabyte trace replays in O(items) memory, never holding more
// than one window of fileWindow decoded records and the decoder's fixed
// buffers.
type FileSource struct {
	f *os.File
	// fill decodes into dst until it is full or decoding stops, and
	// returns the error that stopped it (io.EOF at the clean end).
	fill   func(dst []LogicalRecord) (int, error)
	window [fileWindow]LogicalRecord
	pos, n int
	// end is what stopped decoding after window[:n]; it surfaces once
	// the window has drained.
	end   error
	err   error
	count int64
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
	fs := &FileSource{}
	head, _ := br.Peek(len(streamMagic))
	switch {
	case string(head) == streamMagic:
		fs.fill = NewStreamReader(br).fill
	case len(head) > 0 && head[0] == '{':
		// Self-describing NDJSON: the only text format whose lines start
		// with an object brace.
		fs.fill = fillFrom(NewNDJSONReader(br).Next)
	default:
		if strings.HasPrefix(string(head), streamMagic[:3]) {
			return nil, fmt.Errorf("trace: unsupported binary trace format %q; regenerate the trace with tracegen -format stream", head)
		}
		fs.fill = fillFrom(NewCSVReader(br).Next)
	}
	return fs, nil
}

// fillFrom adapts a per-record decoder to FileSource's window fill.
func fillFrom(next func() (LogicalRecord, error)) func([]LogicalRecord) (int, error) {
	return func(dst []LogicalRecord) (int, error) {
		for i := range dst {
			rec, err := next()
			if err != nil {
				return i, err
			}
			dst[i] = rec
		}
		return len(dst), nil
	}
}

// Next returns the next decoded record.
func (s *FileSource) Next() (LogicalRecord, bool) {
	if s.pos == s.n && !s.refill() {
		return LogicalRecord{}, false
	}
	rec := s.window[s.pos]
	s.pos++
	s.count++
	return rec, true
}

// refill decodes the next window, reporting false once decoding has
// ended and every record before the end has been delivered.
func (s *FileSource) refill() bool {
	if s.end == nil {
		s.n, s.end = s.fill(s.window[:])
		s.pos = 0
		if s.n > 0 {
			return true
		}
	}
	// A bare io.EOF is the clean end of the data; wrapped EOFs from a
	// truncated record are real corruption.
	if s.end != io.EOF {
		s.err = s.end
	}
	return false
}

// Err returns the decoding failure that ended the stream, or nil.
func (s *FileSource) Err() error { return s.err }

// Count returns how many records have been decoded so far.
func (s *FileSource) Count() int64 { return s.count }

// Close closes the underlying file, if any.
func (s *FileSource) Close() error {
	if s.f != nil {
		return s.f.Close()
	}
	return nil
}
