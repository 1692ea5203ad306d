package trace

import (
	"bytes"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
	"time"
)

func TestStreamRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	recs := randomRecords(rng, 500)
	SortLogical(recs)
	var buf bytes.Buffer
	encodeAll(t, NewStreamWriter(&buf), recs)
	r := NewStreamReader(&buf)
	for i := range recs {
		got, ok := r.Next()
		if !ok {
			t.Fatalf("record %d: stream ended: %v", i, r.Err())
		}
		if got != recs[i] {
			t.Fatalf("record %d mismatch", i)
		}
	}
	// The clean end is sticky.
	for i := 0; i < 2; i++ {
		if _, ok := r.Next(); ok || r.Err() != nil {
			t.Fatalf("Next %d after the end: ok %v, err %v", i, ok, r.Err())
		}
	}
}

// TestBinaryRoundTrip pins the binary trace encoding byte for byte: the
// stream magic, then per record the uvarint time delta, item, offset
// and size and one op byte. Files written by earlier builds must keep
// decoding, so the writer may never drift from this layout.
func TestBinaryRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	recs := randomRecords(rng, 1000)
	SortLogical(recs)
	want := []byte(streamMagic)
	var prev time.Duration
	for _, r := range recs {
		want = appendVarintRecord(want, uint64(r.Time-prev), uint64(r.Item), uint64(r.Offset), uint64(r.Size), byte(r.Op))
		prev = r.Time
	}
	var buf bytes.Buffer
	encodeAll(t, NewStreamWriter(&buf), recs)
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("encoding differs from the pinned layout (%d vs %d bytes)", buf.Len(), len(want))
	}
	got, err := CollectSource(NewStreamReader(&buf))
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(got, recs) {
		t.Fatalf("round trip %d records differs from the %d written", len(got), len(recs))
	}
}

func TestStreamEmpty(t *testing.T) {
	var buf bytes.Buffer
	w := NewStreamWriter(&buf)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	r := NewStreamReader(&buf)
	if _, ok := r.Next(); ok || r.Err() != nil {
		t.Fatalf("empty stream: ok %v, err %v; want a clean end", ok, r.Err())
	}
}

func TestStreamRejectsOutOfOrder(t *testing.T) {
	var buf bytes.Buffer
	w := NewStreamWriter(&buf)
	if err := w.Append(LogicalRecord{Time: 10}); err != nil {
		t.Fatal(err)
	}
	if err := w.Append(LogicalRecord{Time: 5}); err == nil {
		t.Fatal("out-of-order append accepted")
	}
}

func TestStreamRejectsGarbage(t *testing.T) {
	r := NewStreamReader(bytes.NewReader([]byte("garbage here")))
	if _, ok := r.Next(); ok || r.Err() == nil {
		t.Fatalf("want corruption error, got %v", r.Err())
	}
}

func TestStreamRejectsTruncation(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	recs := randomRecords(rng, 100)
	SortLogical(recs)
	var buf bytes.Buffer
	w := NewStreamWriter(&buf)
	for _, rec := range recs {
		w.Append(rec)
	}
	w.Close()
	raw := buf.Bytes()
	if _, err := CollectSource(NewStreamReader(bytes.NewReader(raw[:len(raw)-3]))); err == nil {
		t.Fatal("truncated stream read to a clean end")
	}
}

// TestStreamMatchesBatchFormatSemantics: random sorted traces survive
// a stream encode/decode round trip unchanged.
func TestStreamMatchesBatchFormatSemantics(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		recs := randomRecords(rng, int(n))
		SortLogical(recs)
		var buf bytes.Buffer
		w := NewStreamWriter(&buf)
		for _, rec := range recs {
			if err := w.Append(rec); err != nil {
				return false
			}
		}
		if err := w.Close(); err != nil {
			return false
		}
		got, err := CollectSource(NewStreamReader(&buf))
		return err == nil && slices.Equal(got, recs)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
