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

// incrementalReader is the contract shared by the streaming decoders,
// pinned here so all three are tested against the same semantics.
type incrementalReader interface {
	Next() (LogicalRecord, error)
	Count() int64
}

// recordWriter is the contract shared by the appending encoders.
type recordWriter interface {
	Append(LogicalRecord) error
	Close() error
}

// encodeAll appends recs through w and closes it.
func encodeAll(t testing.TB, w recordWriter, recs []LogicalRecord) {
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

// readAll drains r, returning its records and the first error other
// than the clean io.EOF.
func readAll(r incrementalReader) ([]LogicalRecord, error) {
	var recs []LogicalRecord
	for {
		rec, err := r.Next()
		if err == io.EOF {
			return recs, nil
		}
		if err != nil {
			return nil, err
		}
		recs = append(recs, rec)
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
	open    func(io.Reader) incrementalReader
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
		open    func(io.Reader) incrementalReader
	}{
		{
			name:  "stream",
			clean: streamBuf.Bytes(),
			// A lone continuation byte: an unterminated varint, so the
			// decoder sees truncation inside a record, not a clean end.
			corrupt: append(append([]byte{}, streamBuf.Bytes()...), 0x80),
			open:    func(r io.Reader) incrementalReader { return NewStreamReader(r) },
		},
		{
			name:    "ndjson",
			clean:   ndjsonBuf.Bytes(),
			corrupt: append(append([]byte{}, ndjsonBuf.Bytes()...), []byte("{\"t_ns\":oops}\n")...),
			open:    func(r io.Reader) incrementalReader { return NewNDJSONReader(r) },
		},
		{
			name:    "csv",
			clean:   csvBuf.Bytes(),
			corrupt: append(append([]byte{}, csvBuf.Bytes()...), []byte("not,a,record\n")...),
			open:    func(r io.Reader) incrementalReader { return NewCSVReader(r) },
		},
	}
}

// TestReaderConformanceSticky drives every incremental reader through
// the same script: decode a valid prefix, hit a mid-stream corruption,
// and verify the reader goes sticky — the same error from every
// subsequent Next, Count frozen at the number of good records, no
// partial record leaked.
func TestReaderConformanceSticky(t *testing.T) {
	for _, tc := range readerConformanceCases(t) {
		t.Run(tc.name, func(t *testing.T) {
			r := tc.open(bytes.NewReader(tc.corrupt))
			for i, want := range confRecords {
				got, err := r.Next()
				if err != nil {
					t.Fatalf("record %d: %v", i, err)
				}
				if got != want {
					t.Fatalf("record %d: got %+v, want %+v", i, got, want)
				}
			}
			if n := r.Count(); n != int64(len(confRecords)) {
				t.Fatalf("Count() = %d before error, want %d", n, len(confRecords))
			}
			_, first := r.Next()
			if first == nil || first == io.EOF {
				t.Fatalf("corrupt tail decoded without error (err=%v)", first)
			}
			for i := 0; i < 3; i++ {
				rec, again := r.Next()
				if again != first {
					t.Fatalf("retry %d: error changed from %v to %v", i, first, again)
				}
				if rec != (LogicalRecord{}) {
					t.Fatalf("retry %d: sticky reader leaked record %+v", i, rec)
				}
				if n := r.Count(); n != int64(len(confRecords)) {
					t.Fatalf("retry %d: Count() moved to %d after error", i, n)
				}
			}
		})
	}
}

// TestReaderConformanceEOF verifies the clean-end behavior is just as
// sticky: io.EOF exactly at the end, io.EOF again on retry, Count
// stable.
func TestReaderConformanceEOF(t *testing.T) {
	for _, tc := range readerConformanceCases(t) {
		t.Run(tc.name, func(t *testing.T) {
			r := tc.open(bytes.NewReader(tc.clean))
			for i := range confRecords {
				if _, err := r.Next(); err != nil {
					t.Fatalf("record %d: %v", i, err)
				}
			}
			for i := 0; i < 3; i++ {
				if _, err := r.Next(); err != io.EOF {
					t.Fatalf("retry %d: got %v, want io.EOF", i, err)
				}
				if n := r.Count(); n != int64(len(confRecords)) {
					t.Fatalf("retry %d: Count() = %d after EOF, want %d", i, n, len(confRecords))
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
	if _, err := r.Next(); err != nil {
		t.Fatal(err)
	}
	_, err := r.Next()
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
	if _, again := r.Next(); again != err {
		t.Fatalf("order error not sticky: %v then %v", err, again)
	}
}

// TestOrderErrorCSV checks the text readers report the violating line.
func TestOrderErrorCSV(t *testing.T) {
	in := "time_ns,item,offset,size,op\n100,1,0,4,R\n50,1,0,4,R\n"
	_, err := readAll(NewCSVReader(strings.NewReader(in)))
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
	r := NewNDJSONReader(strings.NewReader(in))
	if _, err := r.Next(); err != nil {
		t.Fatal(err)
	}
	_, err := r.Next()
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
