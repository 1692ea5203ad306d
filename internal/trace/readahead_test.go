package trace

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"
)

// panicSource yields its records, then panics with errPanicked.
type panicSource struct {
	SliceSource
}

var errPanicked = errors.New("source panicked")

func (s *panicSource) Next() (LogicalRecord, bool) {
	if s.pos == len(s.recs) {
		panic(errPanicked)
	}
	return s.SliceSource.Next()
}

// exitSource yields its records, then ends its goroutine.
type exitSource struct {
	SliceSource
}

func (s *exitSource) Next() (LogicalRecord, bool) {
	if s.pos == len(s.recs) {
		runtime.Goexit()
	}
	return s.SliceSource.Next()
}

// drainSource reads src to its end, recovering a panic on the way: the
// records read, the source's error, and the panic value, if any.
func drainSource(src Source) (recs []LogicalRecord, err error, pval any) {
	defer func() {
		if pval = recover(); pval == nil {
			err = src.Err()
		}
	}()
	for {
		rec, ok := src.Next()
		if !ok {
			return recs, nil, nil
		}
		recs = append(recs, rec)
	}
}

// settleGoroutines waits for the goroutine count to fall back to want:
// a producer signals its exit just before it returns.
func settleGoroutines(t *testing.T, want int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for runtime.NumGoroutine() > want {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines, want %d", runtime.NumGoroutine(), want)
		}
		runtime.Gosched()
		time.Sleep(time.Millisecond)
	}
}

// TestReadAheadDeliversSource reads sources that end in each way a
// source can through a ReadAhead: every record arrives in order, across
// several batches and a partial last one, and then the source's end: a
// clean end, its error, its panic re-raised on the consumer as a
// *SourcePanic carrying the producer's stack, or ErrSourceExited for a
// source that ended the producer's goroutine.
func TestReadAheadDeliversSource(t *testing.T) {
	recs := sortedRecs(rand.New(rand.NewSource(5)), 3*ReadAheadBatch+17, 1)
	errBoom := errors.New("boom")
	for _, c := range []struct {
		name string
		src  Source
		want error
	}{
		{"clean", NewSliceSource(recs), nil},
		{"error", &failSource{SliceSource{recs: recs}, errBoom}, errBoom},
		{"panic", &panicSource{SliceSource{recs: recs}}, errPanicked},
		{"goexit", &exitSource{SliceSource{recs: recs}}, ErrSourceExited},
	} {
		before := runtime.NumGoroutine()
		got, err, pval := drainSource(NewReadAhead(c.src))
		if !slices.Equal(got, recs) {
			t.Errorf("%s: %d records arrived, want the source's %d", c.name, len(got), len(recs))
		}
		if c.name == "panic" {
			p, ok := pval.(*SourcePanic)
			if !ok || !errors.Is(p, errPanicked) {
				t.Fatalf("%s: recovered %v, want a *SourcePanic wrapping %v", c.name, pval, errPanicked)
			}
			for _, frame := range []string{"(*panicSource).Next", "(*ReadAhead).produce"} {
				if !strings.Contains(p.Error(), frame) {
					t.Errorf("%s: the re-raised panic does not show %s:\n%v", c.name, frame, p)
				}
			}
		} else if pval != nil || err != c.want {
			t.Errorf("%s: ended with error %v, panic %v; want error %v", c.name, err, pval, c.want)
		}
		settleGoroutines(t, before)
	}
}

// TestReadAheadStopMidStream leaves a long source part-way: Stop
// returns once the producer has exited, and no longer counted in
// ReadAheads, may be repeated, and Close then closes the source.
func TestReadAheadStopMidStream(t *testing.T) {
	before, producing := runtime.NumGoroutine(), ReadAheads()
	closed := false
	recs := sortedRecs(rand.New(rand.NewSource(6)), 20*ReadAheadBatch, 0)
	ra := NewReadAhead(trackedSource{NewSliceSource(recs), &closed})
	if got := ReadAheads(); got != producing+1 {
		t.Errorf("ReadAheads %d with the producer running, want %d", got, producing+1)
	}
	for range ReadAheadBatch + 3 {
		if _, ok := ra.Next(); !ok {
			t.Fatal("the read-ahead ended early")
		}
	}
	ra.Stop()
	if got := ReadAheads(); got != producing {
		t.Errorf("ReadAheads %d after Stop, want %d", got, producing)
	}
	settleGoroutines(t, before)
	if closed {
		t.Fatal("Stop closed the source")
	}
	ra.Stop()
	if err := ra.Close(); err != nil || !closed {
		t.Fatalf("Close returned %v and closed the source: %v", err, closed)
	}
}

// TestMergeRangesMatchesFlat is MergeRanges' differential test: split
// into any number of ranges, it yields exactly MergeSources' records,
// ties included, and ends the same way, with the same error text
// naming the failing source's index, after the same records. A panic
// in a range's source is re-raised with the range producer's stack,
// after a prefix of the records the flat merge yields before it.
func TestMergeRangesMatchesFlat(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	errBoom := errors.New("boom")
	type mergeCase struct {
		name  string
		build func() []Source
	}
	sliceSrcs := func(inputs [][]LogicalRecord) func() []Source {
		return func() []Source {
			srcs := make([]Source, len(inputs))
			for i, in := range inputs {
				srcs[i] = NewSliceSource(in)
			}
			return srcs
		}
	}
	var cases []mergeCase
	for _, k := range []int{1, 2, 3, 7, 64, 301} {
		maxLen := max(2, 6000/k)
		ties := mergeInputs(rng, k, maxLen, 4, 0)
		for _, in := range ties {
			for j := range in {
				in[j].Time = 7
			}
		}
		cases = append(cases,
			mergeCase{fmt.Sprintf("k=%d/random", k), sliceSrcs(mergeInputs(rng, k, maxLen, 0, 0))},
			mergeCase{fmt.Sprintf("k=%d/empties", k), sliceSrcs(mergeInputs(rng, k, maxLen, 3, 0))},
			mergeCase{fmt.Sprintf("k=%d/coarse", k), sliceSrcs(mergeInputs(rng, k, maxLen, 5, time.Millisecond))},
			mergeCase{fmt.Sprintf("k=%d/ties", k), sliceSrcs(ties)},
		)
		inputs := mergeInputs(rng, k, maxLen, 0, time.Millisecond)
		for _, bad := range []int{0, k / 2, k - 1} {
			unsorted := append(slices.Clone(inputs[bad]),
				LogicalRecord{Time: 1 << 40, Item: ItemID(bad), Size: 1},
				LogicalRecord{Time: 1 << 39, Item: ItemID(bad), Size: 1})
			with := func(s Source) func() []Source {
				return func() []Source {
					srcs := sliceSrcs(inputs)()
					srcs[bad] = s
					return srcs
				}
			}
			n := len(inputs[bad]) / 2
			cases = append(cases,
				mergeCase{fmt.Sprintf("k=%d/unsorted=%d", k, bad), func() []Source { return with(NewSliceSource(unsorted))() }},
				mergeCase{fmt.Sprintf("k=%d/fail=%d", k, bad), func() []Source { return with(&failSource{SliceSource{recs: inputs[bad][:n]}, errBoom})() }},
				mergeCase{fmt.Sprintf("k=%d/panic=%d", k, bad), func() []Source { return with(&panicSource{SliceSource{recs: inputs[bad][:n]}})() }},
			)
		}
	}
	before := runtime.NumGoroutine()
	for _, tc := range cases {
		want, wantErr, wantPanic := drainSource(MergeSources(tc.build()...))
		for _, parts := range []int{2, 3, 5} {
			m := MergeRanges(parts, tc.build()...)
			got, err, pval := drainSource(m)
			if wantPanic != nil && len(got) <= len(want) {
				// The merge that takes a range's record loses it when
				// the range's next pull panics, as the flat merge loses
				// the panicking source's: a prefix arrives.
				want = want[:len(got)]
			}
			if !slices.Equal(got, want) {
				t.Errorf("%s parts=%d: %d records, the flat merge %d", tc.name, parts, len(got), len(want))
			}
			if fmt.Sprint(err) != fmt.Sprint(wantErr) {
				t.Errorf("%s parts=%d: error %v, the flat merge's %v", tc.name, parts, err, wantErr)
			}
			if wantPanic != nil && m.nested {
				p, ok := pval.(*SourcePanic)
				if !ok || !errors.Is(p, errPanicked) || !strings.Contains(p.Error(), "(*ReadAhead).produce") {
					t.Errorf("%s parts=%d: recovered %v, want a *SourcePanic from a range producer", tc.name, parts, pval)
				}
			} else if (pval != nil) != (wantPanic != nil) {
				t.Fatalf("%s parts=%d: panicked: %v", tc.name, parts, pval)
			}
			m.Close()
		}
	}
	settleGoroutines(t, before)
}
