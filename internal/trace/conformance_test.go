package trace

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"strings"
	"testing"
	"time"
)

// encodeAll appends recs through w and closes it.
func encodeAll(t testing.TB, w *Writer, recs []LogicalRecord) {
	t.Helper()
	for _, r := range recs {
		if err := w.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

// confRecords is the canonical valid prefix used by the conformance
// cases.
var confRecords = []LogicalRecord{
	{Time: 0, Item: 1, Offset: 0, Size: 4096, Op: OpRead},
	{Time: time.Millisecond, Item: 2, Offset: 4096, Size: 512, Op: OpWrite},
	{Time: 2 * time.Millisecond, Item: 1, Offset: 8192, Size: 4096, Op: OpRead},
}

// readerConformanceCases builds, per format, a clean encoding of
// confRecords, a corrupted variant (valid prefix then garbage), and a
// constructor.
func readerConformanceCases(t *testing.T) []struct {
	name    string
	clean   []byte
	corrupt []byte
	open    func(io.Reader) Source
} {
	t.Helper()

	var streamBuf, ndjsonBuf, csvBuf bytes.Buffer
	encodeAll(t, NewStreamWriter(&streamBuf), confRecords)
	encodeAll(t, NewNDJSONWriter(&ndjsonBuf), confRecords)
	encodeAll(t, NewCSVWriter(&csvBuf), confRecords)

	return []struct {
		name    string
		clean   []byte
		corrupt []byte
		open    func(io.Reader) Source
	}{
		{
			name:  "stream",
			clean: streamBuf.Bytes(),
			// A lone continuation byte: an unterminated varint, so the
			// decoder sees truncation inside a record, not a clean end.
			corrupt: append(append([]byte{}, streamBuf.Bytes()...), 0x80),
			open:    func(r io.Reader) Source { return NewStreamReader(r) },
		},
		{
			name:    "ndjson",
			clean:   ndjsonBuf.Bytes(),
			corrupt: append(append([]byte{}, ndjsonBuf.Bytes()...), []byte("{\"t_ns\":oops}\n")...),
			open:    func(r io.Reader) Source { return NewNDJSONReader(r) },
		},
		{
			name:    "csv",
			clean:   csvBuf.Bytes(),
			corrupt: append(append([]byte{}, csvBuf.Bytes()...), []byte("not,a,record\n")...),
			open:    func(r io.Reader) Source { return NewCSVReader(r) },
		},
	}
}

// TestReaderConformanceSticky drives every decoder through the same
// script: decode a valid prefix, hit a mid-stream corruption, and
// verify the end is sticky — no record from every subsequent Next, the
// same error from Err, no partial record leaked.
func TestReaderConformanceSticky(t *testing.T) {
	for _, tc := range readerConformanceCases(t) {
		t.Run(tc.name, func(t *testing.T) {
			r := tc.open(bytes.NewReader(tc.corrupt))
			for i, want := range confRecords {
				got, ok := r.Next()
				if !ok {
					t.Fatalf("record %d: stream ended: %v", i, r.Err())
				}
				if got != want {
					t.Fatalf("record %d: got %+v, want %+v", i, got, want)
				}
			}
			if _, ok := r.Next(); ok {
				t.Fatal("corrupt tail decoded as a record")
			}
			first := r.Err()
			if first == nil {
				t.Fatal("corrupt tail ended the stream without an error")
			}
			for i := 0; i < 3; i++ {
				rec, ok := r.Next()
				if ok || rec != (LogicalRecord{}) {
					t.Fatalf("retry %d: sticky reader leaked record %+v", i, rec)
				}
				if again := r.Err(); again != first {
					t.Fatalf("retry %d: error changed from %v to %v", i, first, again)
				}
			}
		})
	}
}

// TestReaderConformanceEOF verifies the clean end is just as sticky:
// the stream ends exactly after the last record with a nil Err, and
// stays ended.
func TestReaderConformanceEOF(t *testing.T) {
	for _, tc := range readerConformanceCases(t) {
		t.Run(tc.name, func(t *testing.T) {
			r := tc.open(bytes.NewReader(tc.clean))
			for i := range confRecords {
				if _, ok := r.Next(); !ok {
					t.Fatalf("record %d: stream ended: %v", i, r.Err())
				}
			}
			for i := 0; i < 3; i++ {
				if rec, ok := r.Next(); ok {
					t.Fatalf("retry %d: record %+v after the end", i, rec)
				}
				if err := r.Err(); err != nil {
					t.Fatalf("retry %d: clean end reports %v", i, err)
				}
			}
		})
	}
}

// appendVarintRecord hand-encodes one delta/varint record, used to
// craft inputs the writers refuse to produce (backwards time).
func appendVarintRecord(b []byte, dt, item, off, size uint64, op byte) []byte {
	var tmp [binary.MaxVarintLen64]byte
	for _, v := range [...]uint64{dt, item, off, size} {
		n := binary.PutUvarint(tmp[:], v)
		b = append(b, tmp[:n]...)
	}
	return append(b, op)
}

// TestOrderErrorStream crafts a stream whose second record's delta
// overflows (the varint encoding of time going backwards) and checks
// the typed error carries the byte offset of the offending record.
func TestOrderErrorStream(t *testing.T) {
	buf := []byte(streamMagic)
	rec1 := appendVarintRecord(nil, 100, 1, 0, 4096, byte(OpRead))
	buf = append(buf, rec1...)
	buf = appendVarintRecord(buf, ^uint64(0), 1, 0, 4096, byte(OpRead))

	r := NewStreamReader(bytes.NewReader(buf))
	if _, ok := r.Next(); !ok {
		t.Fatal(r.Err())
	}
	if _, ok := r.Next(); ok {
		t.Fatal("backwards record decoded")
	}
	err := r.Err()
	var oe *OrderError
	if !errors.As(err, &oe) {
		t.Fatalf("got %v (%T), want *OrderError", err, err)
	}
	if oe.Format != "stream" || oe.Record != 1 {
		t.Fatalf("OrderError = %+v, want Format stream, Record 1", oe)
	}
	wantOff := int64(len(streamMagic) + len(rec1))
	if oe.Offset != wantOff {
		t.Fatalf("Offset = %d, want %d", oe.Offset, wantOff)
	}
	// Sticky like any other decode error.
	if _, ok := r.Next(); ok || r.Err() != err {
		t.Fatalf("order error not sticky: %v then %v", err, r.Err())
	}
}

// TestOrderErrorCSV checks the text decoders report the violating line.
func TestOrderErrorCSV(t *testing.T) {
	in := "time_ns,item,offset,size,op\n100,1,0,4,R\n50,1,0,4,R\n"
	_, err := CollectSource(NewCSVReader(strings.NewReader(in)))
	var oe *OrderError
	if !errors.As(err, &oe) {
		t.Fatalf("got %v (%T), want *OrderError", err, err)
	}
	if oe.Format != "csv" || oe.Record != 1 || oe.Line != 3 {
		t.Fatalf("OrderError = %+v, want Format csv, Record 1, Line 3", oe)
	}
	if oe.Prev != 100 || oe.Got != 50 {
		t.Fatalf("Prev/Got = %v/%v, want 100ns/50ns", oe.Prev, oe.Got)
	}
	if !strings.Contains(err.Error(), "out of order") || !strings.Contains(err.Error(), "line 3") {
		t.Fatalf("message %q lost position or vocabulary", err)
	}
}

// TestOrderErrorNDJSON is the NDJSON twin of TestOrderErrorCSV.
func TestOrderErrorNDJSON(t *testing.T) {
	in := `{"t_ns":100,"item":1,"off":0,"size":4,"op":"R"}` + "\n" +
		`{"t_ns":50,"item":1,"off":0,"size":4,"op":"R"}` + "\n"
	_, err := CollectSource(NewNDJSONReader(strings.NewReader(in)))
	var oe *OrderError
	if !errors.As(err, &oe) {
		t.Fatalf("got %v (%T), want *OrderError", err, err)
	}
	if oe.Format != "ndjson" || oe.Record != 1 || oe.Line != 2 {
		t.Fatalf("OrderError = %+v, want Format ndjson, Record 1, Line 2", oe)
	}
	if oe.Prev != 100 || oe.Got != 50 {
		t.Fatalf("Prev/Got = %v/%v, want 100ns/50ns", oe.Prev, oe.Got)
	}
}

// TestOrderErrorWriters checks every writer refuses an out-of-order
// Append with the typed error, naming the record and both times, and
// encodes nothing for it.
func TestOrderErrorWriters(t *testing.T) {
	for format, open := range map[string]func(io.Writer) *Writer{
		"stream": NewStreamWriter,
		"csv":    NewCSVWriter,
		"ndjson": NewNDJSONWriter,
	} {
		var buf bytes.Buffer
		w := open(&buf)
		if err := w.Append(LogicalRecord{Time: 100, Size: 4}); err != nil {
			t.Fatal(err)
		}
		err := w.Append(LogicalRecord{Time: 50, Size: 4})
		var oe *OrderError
		if !errors.As(err, &oe) {
			t.Fatalf("%s: got %v (%T), want *OrderError", format, err, err)
		}
		if oe.Format != format || oe.Record != 1 || oe.Prev != 100 || oe.Got != 50 {
			t.Fatalf("%s: OrderError = %+v, want Format %s, Record 1, 100ns then 50ns", format, oe, format)
		}
		if !strings.Contains(err.Error(), "out of order") {
			t.Fatalf("%s: message %q lost its vocabulary", format, err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		got, err := CollectSource(mustFileSource(t, buf.Bytes()))
		if err != nil || len(got) != 1 {
			t.Fatalf("%s: refused record was encoded: %d records, %v", format, len(got), err)
		}
	}
}

// mustFileSource returns a FileSource decoding data.
func mustFileSource(t testing.TB, data []byte) *FileSource {
	t.Helper()
	fs, err := NewFileSource(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	return fs
}
