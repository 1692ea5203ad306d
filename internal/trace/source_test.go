package trace

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"
)

// sortedRecs builds n sorted records with random gaps and payloads.
func sortedRecs(rng *rand.Rand, n int, item ItemID) []LogicalRecord {
	recs := make([]LogicalRecord, n)
	var t time.Duration
	for i := range recs {
		t += time.Duration(rng.Int63n(int64(5 * time.Millisecond)))
		op := OpRead
		if rng.Intn(3) == 0 {
			op = OpWrite
		}
		recs[i] = LogicalRecord{
			Time:   t,
			Item:   item,
			Offset: int64(rng.Intn(1<<20) * 4096),
			Size:   int32(4096 * (1 + rng.Intn(16))),
			Op:     op,
		}
	}
	return recs
}

func TestSliceSource(t *testing.T) {
	recs := sortedRecs(rand.New(rand.NewSource(1)), 100, 0)
	got, err := CollectSource(NewSliceSource(recs))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(recs) {
		t.Fatalf("got %d records, want %d", len(got), len(recs))
	}
	for i := range got {
		if got[i] != recs[i] {
			t.Fatalf("record %d: got %+v, want %+v", i, got[i], recs[i])
		}
	}
	// Exhausted source stays exhausted.
	s := NewSliceSource(recs[:1])
	s.Next()
	if _, ok := s.Next(); ok {
		t.Fatal("Next returned ok after exhaustion")
	}
}

// seqOf is a generator over recs that sets *stopped when it returns,
// the way a deferred cleanup in a workload generator would run.
func seqOf(recs []LogicalRecord, stopped *bool) func(yield func(LogicalRecord) bool) {
	return func(yield func(LogicalRecord) bool) {
		defer func() { *stopped = true }()
		for _, r := range recs {
			if !yield(r) {
				return
			}
		}
	}
}

// readerCase is one generated stream read through an ItemReader.
type readerCase struct {
	name        string
	recs        []LogicalRecord // what the generator yields
	from, limit time.Duration
	want        int    // how many records the reader yields
	fault       string // "" for a clean end, else a part of Err's text
	order       bool   // whether Err wraps a *OrderError
}

// readerRecs is a generator's output of a few full-size reader batches
// and a partial one, all of item 3.
func readerRecs() []LogicalRecord {
	return sortedRecs(rand.New(rand.NewSource(2)), 3*seqBatch+5, 3)
}

// checkItemReader reads each case both ways an ItemReader is read,
// through Next (a merge's) and Fill (straight into the caller's batch),
// and checks that the stream yields the first want records, stops its
// generator, and ends with the expected error and stays ended.
func checkItemReader(t *testing.T, cases []readerCase) {
	t.Helper()
	reads := map[string]func(r *ItemReader) []LogicalRecord{
		"next": func(r *ItemReader) []LogicalRecord {
			var got []LogicalRecord
			for {
				rec, ok := r.Next()
				if !ok {
					return got
				}
				got = append(got, rec)
			}
		},
		"fill": func(r *ItemReader) []LogicalRecord {
			var got []LogicalRecord
			dst := make([]LogicalRecord, 7)
			for {
				n := r.Fill(dst)
				got = append(got, dst[:n]...)
				if n < len(dst) {
					if r.Fill(dst) != 0 {
						t.Fatal("Fill wrote records after a short fill ended the stream")
					}
					return got
				}
			}
		},
	}
	for _, c := range cases {
		for how, read := range reads {
			var stopped bool
			r := ItemStream{Item: 3, From: c.from, Seq: seqOf(c.recs, &stopped)}.Open(c.limit)
			got := read(r)
			if !slices.Equal(got, c.recs[:c.want]) {
				t.Fatalf("%s/%s: got %d records, want %d (or contents differ)", c.name, how, len(got), c.want)
			}
			if !stopped {
				t.Fatalf("%s/%s: generator still running after the stream ended", c.name, how)
			}
			err := r.Err()
			switch {
			case c.fault == "" && err != nil:
				t.Fatalf("%s/%s: %v", c.name, how, err)
			case c.fault != "" && (err == nil || !strings.Contains(err.Error(), c.fault)):
				t.Fatalf("%s/%s: error %v, want one naming %q", c.name, how, err, c.fault)
			}
			if oe := (*OrderError)(nil); errors.As(err, &oe) != c.order {
				t.Fatalf("%s/%s: error %v wraps a *OrderError: %v, want %v", c.name, how, err, !c.order, c.order)
			}
			if _, ok := r.Next(); ok {
				t.Fatalf("%s/%s: Next returned ok after the stream ended", c.name, how)
			}
			r.Close()
		}
	}
}

// TestSeqSource checks the ItemReader as the source over a generator's
// sequence: every length across the batch edges, through Next and Fill,
// and Close in the middle of a batch.
func TestSeqSource(t *testing.T) {
	all := readerRecs()
	// Every length up to a few full-size batches, so the final batch is
	// empty, partial or exactly full at every buffer size.
	var cases []readerCase
	for n := range len(all) + 1 {
		cases = append(cases, readerCase{name: fmt.Sprintf("len=%d", n), recs: all[:n], limit: maxTime, want: n})
	}
	checkItemReader(t, cases)

	// Close in the middle of a batch must stop the generator (its
	// deferred cleanup runs) and end the stream; Close stays safe and
	// idempotent.
	for _, taken := range []int{1, seqBatch / 2, seqBatch + 3} {
		var stopped bool
		r := ItemStream{Item: 3, Seq: seqOf(all, &stopped)}.Open(maxTime)
		for i := 0; i < taken; i++ {
			if rec, ok := r.Next(); !ok || rec != all[i] {
				t.Fatalf("record %d: got %+v ok=%v, want %+v", i, rec, ok, all[i])
			}
		}
		r.Close()
		if !stopped {
			t.Fatalf("Close after %d records left the generator running", taken)
		}
		r.Close()
		if _, ok := r.Next(); ok {
			t.Fatalf("Next returned ok after Close (%d records taken)", taken)
		}
		if n := r.Fill(make([]LogicalRecord, 4)); n != 0 {
			t.Fatalf("Fill wrote %d records after Close (%d records taken)", n, taken)
		}
	}
}

// TestTruncateSource checks the ItemReader's limit cut: the limit is
// inclusive and the stream ends at its first record past it.
func TestTruncateSource(t *testing.T) {
	all := readerRecs()
	backwards := slices.Clone(all)
	backwards[70].Time = all[69].Time - 1
	checkItemReader(t, []readerCase{
		// Mid-batch and at a batch's last record.
		{name: "limit", recs: all, limit: all[40].Time, want: 41},
		{name: "limit-at-batch-edge", recs: all, limit: all[seqBatch-1].Time, want: seqBatch},
		// A record past the limit ends the stream before it is checked.
		{name: "backwards-past-limit", recs: backwards, limit: all[60].Time, want: 61},
	})
}

// TestItemReader checks the generator contract the ItemReader enforces:
// each breach ends the stream after the records before it with an error
// describing the bad record.
func TestItemReader(t *testing.T) {
	all := readerRecs()
	with := func(i int, edit func(*LogicalRecord)) []LogicalRecord {
		recs := slices.Clone(all)
		edit(&recs[i])
		return recs
	}
	checkItemReader(t, []readerCase{
		{name: "from", recs: all, from: all[0].Time, limit: maxTime, want: len(all)},
		{name: "before-from", recs: all, from: all[0].Time + 1, limit: maxTime, want: 0, fault: "before the stream's From", order: true},
		{name: "wrong-item", recs: with(50, func(r *LogicalRecord) { r.Item = 4 }), limit: maxTime, want: 50, fault: "record 50 is of item 4"},
		{name: "backwards", recs: with(70, func(r *LogicalRecord) { r.Time = all[69].Time - 1 }), limit: maxTime, want: 70, fault: "record 70 out of order", order: true},
	})
}

// trackedSource records when the merge closes it.
type trackedSource struct {
	*SliceSource
	closed *bool
}

func (s trackedSource) Close() error { *s.closed = true; return nil }

// failSource yields its records, then ends with err.
type failSource struct {
	SliceSource
	err error
}

func (s *failSource) Err() error {
	if s.pos >= len(s.recs) {
		return s.err
	}
	return nil
}

// mergeInputs builds k sorted inputs, record items naming the source.
// Every emptyEvery-th source is empty (0 = none); when tick is
// non-zero every time is a multiple of it, drawn from a small range, so
// many records tie across sources.
func mergeInputs(rng *rand.Rand, k, maxLen, emptyEvery int, tick time.Duration) [][]LogicalRecord {
	inputs := make([][]LogicalRecord, k)
	for i := range inputs {
		if emptyEvery > 0 && i%emptyEvery == emptyEvery-1 {
			continue
		}
		recs := sortedRecs(rng, rng.Intn(maxLen+1), ItemID(i))
		if tick > 0 {
			var t time.Duration
			for j := range recs {
				t += tick * time.Duration(rng.Intn(2))
				recs[j].Time = t
			}
		}
		inputs[i] = recs
	}
	return inputs
}

// TestMergeSourcesMatchesMergeLogical is the differential merge test:
// MergeSources must produce exactly what concatenating every input and
// stable-sorting by (Time, source index) produces, and agree with the
// reference heap merge. It
// also checks that each source is closed as soon as its last record has
// been merged.
func TestMergeSourcesMatchesMergeLogical(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	type mergeCase struct {
		name   string
		inputs [][]LogicalRecord
	}
	var cases []mergeCase
	for _, k := range []int{0, 1, 2, 3, 7, 64, 1800} {
		maxLen := max(2, 4000/max(k, 1))
		cases = append(cases,
			mergeCase{fmt.Sprintf("k=%d/random", k), mergeInputs(rng, k, maxLen, 0, 0)},
			mergeCase{fmt.Sprintf("k=%d/empties", k), mergeInputs(rng, k, maxLen, 3, 0)},
			mergeCase{fmt.Sprintf("k=%d/coarse", k), mergeInputs(rng, k, maxLen, 5, time.Millisecond)},
		)
		// Every record at one instant: the output is the inputs in
		// source order.
		ties := mergeInputs(rng, k, maxLen, 4, 0)
		for _, in := range ties {
			for j := range in {
				in[j].Time = 7
			}
		}
		cases = append(cases, mergeCase{fmt.Sprintf("k=%d/ties", k), ties})
	}
	// Sources exhausting in every order: source perm[j] ends (j+1)th.
	for _, perm := range [][]int{{0, 1, 2}, {0, 2, 1}, {1, 0, 2}, {1, 2, 0}, {2, 0, 1}, {2, 1, 0}} {
		inputs := make([][]LogicalRecord, len(perm))
		for j, src := range perm {
			for t := 0; t <= 2*(j+1); t++ {
				inputs[src] = append(inputs[src], LogicalRecord{Time: time.Duration(t), Item: ItemID(src), Size: 1})
			}
		}
		cases = append(cases, mergeCase{fmt.Sprintf("exhaust=%v", perm), inputs})
	}
	// The original fixed case: 7 dense random traces.
	var traces [][]LogicalRecord
	for k := 0; k < 7; k++ {
		traces = append(traces, sortedRecs(rng, 200+rng.Intn(200), ItemID(k)))
	}
	cases = append(cases, mergeCase{"dense7", traces})

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			want := refStableSort(tc.inputs)
			closed := make([]bool, len(tc.inputs))
			left := make([]int, len(tc.inputs))
			srcs := make([]Source, len(tc.inputs))
			refSrcs := make([]Source, len(tc.inputs))
			for i, in := range tc.inputs {
				srcs[i] = trackedSource{NewSliceSource(in), &closed[i]}
				refSrcs[i] = NewSliceSource(in)
				left[i] = len(in)
			}
			m := MergeSources(srcs...)
			var got []LogicalRecord
			for {
				rec, ok := m.Next()
				if !ok {
					break
				}
				got = append(got, rec)
				if left[rec.Item]--; left[rec.Item] == 0 && !closed[rec.Item] {
					t.Fatalf("source %d not closed after its last record", rec.Item)
				}
			}
			if err := m.Err(); err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(got, want) {
				t.Fatalf("merge differs from stable sort: %d vs %d records", len(got), len(want))
			}
			ref, err := CollectSource(RefMergeSources(refSrcs...))
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(got, ref) {
				t.Fatal("merge differs from the reference heap merge")
			}
			for i, c := range closed {
				if !c {
					t.Fatalf("source %d never closed", i)
				}
			}
			if _, ok := m.Next(); ok {
				t.Fatal("Next returned ok after the end")
			}
		})
	}
}

func TestMergeSourcesTieOrder(t *testing.T) {
	// Simultaneous records must come out in source-index order.
	a := []LogicalRecord{{Time: 10, Item: 5, Size: 1, Op: OpRead}}
	b := []LogicalRecord{{Time: 10, Item: 1, Size: 1, Op: OpRead}}
	got, err := CollectSource(MergeSources(NewSliceSource(a), NewSliceSource(b)))
	if err != nil {
		t.Fatal(err)
	}
	if got[0].Item != 5 || got[1].Item != 1 {
		t.Fatalf("tie broke to items %d,%d; want 5,1 (source order)", got[0].Item, got[1].Item)
	}
}

func TestMergeSourcesEmpty(t *testing.T) {
	if got, err := CollectSource(MergeSources()); err != nil || len(got) != 0 {
		t.Fatalf("empty merge: got %d records, err %v", len(got), err)
	}
	if got, err := CollectSource(MergeSources(NewSliceSource(nil), NewSliceSource(nil))); err != nil || len(got) != 0 {
		t.Fatalf("merge of empties: got %d records, err %v", len(got), err)
	}
}

// TestMergeSourcesUnsortedInput covers the merge's error paths against
// the reference heap merge: an unsorted input fails with an "out of
// order" error naming that source, and a source whose Err is non-nil
// surfaces it on the call after its last record, which is still
// returned. Either way nothing follows the failure.
func TestMergeSourcesUnsortedInput(t *testing.T) {
	errBoom := errors.New("boom")
	rng := rand.New(rand.NewSource(8))
	type errCase struct {
		name string
		bad  int // the failing source
		// build returns fresh sources for one merge.
		build func() []Source
		want  string
	}
	var cases []errCase
	for _, k := range []int{1, 3, 7, 64} {
		inputs := mergeInputs(rng, k, 40, 0, 0)
		for _, bad := range []int{0, k / 2, k - 1} {
			// Swap a late pair so the source runs backwards mid-stream.
			unsorted := slices.Clone(inputs[bad])
			unsorted = append(unsorted, LogicalRecord{Time: 1 << 40, Item: ItemID(bad), Size: 1},
				LogicalRecord{Time: 1 << 39, Item: ItemID(bad), Size: 1})
			cases = append(cases, errCase{
				name: fmt.Sprintf("k=%d/unsorted=%d", k, bad), bad: bad,
				build: func() []Source {
					srcs := make([]Source, k)
					for i := range srcs {
						srcs[i] = NewSliceSource(inputs[i])
					}
					srcs[bad] = NewSliceSource(unsorted)
					return srcs
				},
				want: fmt.Sprintf("trace: merge source %d out of order", bad),
			})
			for _, n := range []int{0, len(inputs[bad])} {
				cases = append(cases, errCase{
					name: fmt.Sprintf("k=%d/fail=%d/after=%d", k, bad, n), bad: bad,
					build: func() []Source {
						srcs := make([]Source, k)
						for i := range srcs {
							srcs[i] = NewSliceSource(inputs[i])
						}
						srcs[bad] = &failSource{SliceSource{recs: inputs[bad][:n]}, errBoom}
						return srcs
					},
					want: fmt.Sprintf("trace: merge source %d: boom", bad),
				})
			}
		}
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			collect := func(src Source) ([]LogicalRecord, error) {
				var out []LogicalRecord
				for {
					rec, ok := src.Next()
					if !ok {
						break
					}
					out = append(out, rec)
				}
				if _, ok := src.Next(); ok {
					t.Fatal("Next returned ok after the failure")
				}
				return out, src.Err()
			}
			got, err := collect(MergeSources(tc.build()...))
			want, wantErr := collect(RefMergeSources(tc.build()...))
			if err == nil || !strings.HasPrefix(err.Error(), tc.want) {
				t.Fatalf("error %v, want prefix %q", err, tc.want)
			}
			if wantErr == nil || err.Error() != wantErr.Error() {
				t.Fatalf("error %v, reference %v", err, wantErr)
			}
			if !slices.Equal(got, want) {
				t.Fatalf("records before the failure differ: %d vs %d", len(got), len(want))
			}
			if strings.Contains(tc.want, "boom") {
				if !errors.Is(err, errBoom) {
					t.Fatalf("error %v does not wrap the source's", err)
				}
				// The record taken before the failing pull is returned.
				if n := len(got); n > 0 && got[n-1].Item != ItemID(tc.bad) {
					t.Fatalf("last record is from source %d, want the failing source %d", got[n-1].Item, tc.bad)
				}
			}
		})
	}
}

func TestTapSource(t *testing.T) {
	recs := sortedRecs(rand.New(rand.NewSource(4)), 50, 3)
	var seen []LogicalRecord
	got, err := CollectSource(TapSource(NewSliceSource(recs), func(r LogicalRecord) error {
		seen = append(seen, r)
		return nil
	}))
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(got, recs) || !slices.Equal(seen, recs) {
		t.Fatalf("tap passed %d and yielded %d of %d records", len(seen), len(got), len(recs))
	}

	stop := errors.New("full")
	n := 0
	tap := TapSource(NewSliceSource(recs), func(LogicalRecord) error {
		if n++; n == 10 {
			return stop
		}
		return nil
	})
	got, err = CollectSource(tap)
	if !errors.Is(err, stop) || got != nil {
		t.Fatalf("callback failure: got %d records, err %v; want none and %v", len(got), err, stop)
	}
	if _, ok := tap.Next(); ok || n != 10 {
		t.Fatalf("tap went on after its callback failed (%d calls)", n)
	}
}

func TestFileSourceAllFormats(t *testing.T) {
	recs := sortedRecs(rand.New(rand.NewSource(5)), 1000, 2)
	dir := t.TempDir()

	write := func(name string, newWriter func(io.Writer) *Writer) string {
		path := filepath.Join(dir, name)
		f, err := os.Create(path)
		if err != nil {
			t.Fatal(err)
		}
		encodeAll(t, newWriter(f), recs)
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
		return path
	}

	paths := map[string]string{
		"stream": write("t.str", NewStreamWriter),
		"csv":    write("t.csv", NewCSVWriter),
		"ndjson": write("t.ndjson", NewNDJSONWriter),
	}
	// The text readers skip blank lines, so the sniff looks past them:
	// NDJSON that opens with blank bytes is still NDJSON.
	ndjson, err := os.ReadFile(paths["ndjson"])
	if err != nil {
		t.Fatal(err)
	}
	paths["ndjson after blanks"] = filepath.Join(dir, "blank.ndjson")
	if err := os.WriteFile(paths["ndjson after blanks"], append([]byte("\n \t\r\n\n"), ndjson...), 0o644); err != nil {
		t.Fatal(err)
	}

	for format, path := range paths {
		src, err := OpenFile(path)
		if err != nil {
			t.Fatalf("%s: %v", format, err)
		}
		got, err := CollectSource(src)
		if err != nil {
			t.Fatalf("%s: %v", format, err)
		}
		if err := src.Close(); err != nil {
			t.Fatalf("%s: close: %v", format, err)
		}
		if len(got) != len(recs) {
			t.Fatalf("%s: got %d records, want %d", format, len(got), len(recs))
		}
		for i := range got {
			if got[i] != recs[i] {
				t.Fatalf("%s: record %d: got %+v, want %+v", format, i, got[i], recs[i])
			}
		}
	}
}

func TestFileSourceTruncatedBinary(t *testing.T) {
	recs := sortedRecs(rand.New(rand.NewSource(6)), 100, 0)
	var buf bytes.Buffer
	encodeAll(t, NewStreamWriter(&buf), recs)
	cut := buf.Bytes()[:buf.Len()-5]
	src, err := NewFileSource(bytes.NewReader(cut))
	if err != nil {
		t.Fatal(err)
	}
	for {
		if _, ok := src.Next(); !ok {
			break
		}
	}
	if src.Err() == nil {
		t.Fatal("truncated binary trace decoded without error")
	}
}

func TestFileSourceEmptyStream(t *testing.T) {
	var buf bytes.Buffer
	w := NewStreamWriter(&buf)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	src, err := NewFileSource(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	got, err := CollectSource(src)
	if err != nil || len(got) != 0 {
		t.Fatalf("empty stream: got %d records, err %v", len(got), err)
	}
}
