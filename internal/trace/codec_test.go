package trace

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"time"
)

// TestBinaryRejectsGarbage checks that input which is not a stream
// trace never decodes as one: bad magic and empty input fail in the
// stream reader, and a file carrying another ESM binary magic (the
// length-prefixed ESMTRC1 format tracegen used to write) fails in
// FileSource with an error naming that format and the way to
// regenerate it, not with a CSV parse error.
func TestBinaryRejectsGarbage(t *testing.T) {
	for _, in := range []string{"not a trace at all", ""} {
		r := NewStreamReader(strings.NewReader(in))
		if _, ok := r.Next(); ok || r.Err() == nil {
			t.Fatalf("%q: want a decode error, got %v", in, r.Err())
		}
	}
	legacy := "ESMTRC1\n\x01\x00\x00\x00\x00\x00\x00\x00\x05\x01\x00\x04\x00"
	_, err := NewFileSource(strings.NewReader(legacy))
	if err == nil {
		t.Fatal("legacy binary trace accepted")
	}
	for _, want := range []string{"ESMTRC1", "-format stream"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("error %q does not mention %q", err, want)
		}
	}
}

// TestCSVRoundTrip pins the CSV encoding byte for byte (header row,
// then "%d,%d,%d,%d,%s" lines) and checks the reader inverts it.
func TestCSVRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	encodeAll(t, NewCSVWriter(&buf), []LogicalRecord{
		{Time: 5, Item: 1, Offset: 2, Size: 3, Op: OpWrite},
		{Time: 9, Item: 2147483647, Offset: 1 << 40, Size: 4096, Op: OpRead},
	})
	if want := "time_ns,item,offset,size,op\n5,1,2,3,W\n9,2147483647,1099511627776,4096,R\n"; buf.String() != want {
		t.Fatalf("encoding %q, want %q", buf.String(), want)
	}
	buf.Reset()
	encodeAll(t, NewCSVWriter(&buf), nil)
	if buf.String() != "time_ns,item,offset,size,op\n" {
		t.Fatalf("empty trace encodes as %q", buf.String())
	}

	rng := rand.New(rand.NewSource(9))
	recs := randomRecords(rng, 200)
	SortLogical(recs)
	buf.Reset()
	encodeAll(t, NewCSVWriter(&buf), recs)
	got, err := CollectSource(NewCSVReader(&buf))
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(got, recs) {
		t.Fatalf("round trip %d records differs from the %d written", len(got), len(recs))
	}
}

func TestCSVWriterRejectsOutOfOrder(t *testing.T) {
	var buf bytes.Buffer
	w := NewCSVWriter(&buf)
	if err := w.Append(LogicalRecord{Time: 10, Size: 1}); err != nil {
		t.Fatal(err)
	}
	if err := w.Append(LogicalRecord{Time: 5, Size: 1}); err == nil {
		t.Fatal("out-of-order append accepted")
	}
	if err := w.Append(LogicalRecord{Time: 10, Item: 1, Size: 1}); err != nil {
		t.Fatalf("in-order append after a rejected one: %v", err)
	}
	w.Close()
	if want := "time_ns,item,offset,size,op\n10,0,0,1,R\n10,1,0,1,R\n"; buf.String() != want {
		t.Fatalf("encoding %q, want %q", buf.String(), want)
	}
}

func TestCSVRejectsMalformed(t *testing.T) {
	cases := []string{
		"1,2,3\n",
		"x,0,0,0,R\n",
		"0,x,0,0,R\n",
		"0,0,x,0,R\n",
		"0,0,0,x,R\n",
		"0,0,0,0,Q\n",
	}
	for _, c := range cases {
		if _, err := CollectSource(NewCSVReader(strings.NewReader(c))); err == nil {
			t.Fatalf("expected error for %q", c)
		}
	}
}

func TestCSVSkipsHeaderAndBlanks(t *testing.T) {
	in := "time_ns,item,offset,size,op\n\n5,1,2,3,W\n"
	got, err := CollectSource(NewCSVReader(strings.NewReader(in)))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].Op != OpWrite || got[0].Item != 1 {
		t.Fatalf("got %+v", got)
	}
}

func TestCatalogRoundTrip(t *testing.T) {
	c := NewCatalog()
	c.Add("vol00/meta", 50<<20)
	c.Add("tpcc/stock.p0", 28<<30)
	c.Add("a b c", 1)
	var buf bytes.Buffer
	if err := WriteCatalog(&buf, c); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCatalog(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != c.Len() {
		t.Fatalf("round trip %d items, want %d", got.Len(), c.Len())
	}
	for _, id := range c.IDs() {
		if got.Item(id) != c.Item(id) {
			t.Fatalf("item %d mismatch", id)
		}
	}
}

func TestCatalogRejectsSeparatorInName(t *testing.T) {
	c := NewCatalog()
	c.Add("bad,name", 1)
	var buf bytes.Buffer
	if err := WriteCatalog(&buf, c); err == nil {
		t.Fatal("expected error for comma in name")
	}
}

func TestCatalogRejectsNonDense(t *testing.T) {
	in := "id,size,name\n5,1,x\n"
	if _, err := ReadCatalog(strings.NewReader(in)); err == nil {
		t.Fatal("expected error for non-dense ids")
	}
}

func TestPlacementRoundTrip(t *testing.T) {
	placement := []int{0, 3, 1, 2}
	var buf bytes.Buffer
	if err := WritePlacement(&buf, placement); err != nil {
		t.Fatal(err)
	}
	got, err := ReadPlacement(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(placement) {
		t.Fatalf("round trip %d entries", len(got))
	}
	for i := range placement {
		if got[i] != placement[i] {
			t.Fatalf("entry %d = %d", i, got[i])
		}
	}
}

func TestPlacementRejectsMalformed(t *testing.T) {
	for _, in := range []string{"1\n", "x,0\n", "0,x\n", "5,0\n"} {
		if _, err := ReadPlacement(strings.NewReader(in)); err == nil {
			t.Fatalf("expected error for %q", in)
		}
	}
}

// TestWritersPinnedAtExtremes pins the three writers' bytes on records
// with the widest fields (ten-byte varints, the longest numbers, an
// invalid op) across many buffer boundaries, against the layouts
// TestBinaryRoundTrip and TestCSVRoundTrip pin and, for NDJSON, the
// bytes json.Marshal gives each record's wire form.
func TestWritersPinnedAtExtremes(t *testing.T) {
	recs := writerRecords(3000)
	recs[7].Op = 255
	wantStream := []byte(streamMagic)
	wantCSV := []byte("time_ns,item,offset,size,op\n")
	var wantNDJSON []byte
	var prev time.Duration
	for _, r := range recs {
		wantStream = appendVarintRecord(wantStream, uint64(r.Time-prev), uint64(r.Item), uint64(r.Offset), uint64(r.Size), byte(r.Op))
		prev = r.Time
		wantCSV = fmt.Appendf(wantCSV, "%d,%d,%d,%d,%s\n", int64(r.Time), r.Item, r.Offset, r.Size, r.Op)
		line, err := json.Marshal(ndjsonRecord{
			TimeNS: int64(r.Time), Item: int64(r.Item),
			Offset: r.Offset, Size: r.Size, Op: r.Op.String(),
		})
		if err != nil {
			t.Fatal(err)
		}
		wantNDJSON = append(append(wantNDJSON, line...), '\n')
	}
	for _, c := range []struct {
		name string
		open func(io.Writer) *Writer
		want []byte
	}{
		{"stream", NewStreamWriter, wantStream},
		{"csv", NewCSVWriter, wantCSV},
		{"ndjson", NewNDJSONWriter, wantNDJSON},
	} {
		var buf bytes.Buffer
		encodeAll(t, c.open(&buf), recs)
		if !bytes.Equal(buf.Bytes(), c.want) {
			t.Errorf("%s encoding differs from the pinned layout at byte %d", c.name, mismatchAt(buf.Bytes(), c.want))
		}
	}
}

// mismatchAt returns the first index at which a and b differ.
func mismatchAt(a, b []byte) int {
	n := min(len(a), len(b))
	for i := range n {
		if a[i] != b[i] {
			return i
		}
	}
	return n
}
