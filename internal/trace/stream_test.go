package trace

import (
	"bytes"
	"io"
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
	w := NewStreamWriter(&buf)
	for _, r := range recs {
		if err := w.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if w.Count() != 500 {
		t.Fatalf("writer count %d", w.Count())
	}
	r := NewStreamReader(&buf)
	for i := range recs {
		got, err := r.Next()
		if err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		if got != recs[i] {
			t.Fatalf("record %d mismatch", i)
		}
	}
	if _, err := r.Next(); err != io.EOF {
		t.Fatalf("want EOF, got %v", err)
	}
	// EOF is sticky.
	if _, err := r.Next(); err != io.EOF {
		t.Fatalf("EOF not sticky: %v", err)
	}
	if r.Count() != 500 {
		t.Fatalf("reader count %d", r.Count())
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
	got, err := readAll(NewStreamReader(&buf))
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
	if _, err := r.Next(); err != io.EOF {
		t.Fatalf("want EOF on empty stream, got %v", err)
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
	if _, err := r.Next(); err == nil || err == io.EOF {
		t.Fatalf("want corruption error, got %v", err)
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
	r := NewStreamReader(bytes.NewReader(raw[:len(raw)-3]))
	var err error
	for {
		if _, err = r.Next(); err != nil {
			break
		}
	}
	if err == io.EOF {
		t.Fatal("truncated stream read to clean EOF")
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
		r := NewStreamReader(&buf)
		for i := 0; ; i++ {
			rec, err := r.Next()
			if err == io.EOF {
				return i == len(recs)
			}
			if err != nil || rec != recs[i] {
				return false
			}
		}
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
