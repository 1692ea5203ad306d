package trace

import (
	"bytes"
	"io"
	"strings"
	"testing"
	"time"
)

func TestNDJSONRoundTrip(t *testing.T) {
	recs := []LogicalRecord{
		{Time: 0, Item: 0, Offset: 0, Size: 512, Op: OpRead},
		{Time: 1500 * time.Millisecond, Item: 3, Offset: 4096, Size: 8192, Op: OpWrite},
		{Time: 1500 * time.Millisecond, Item: 2, Offset: 0, Size: 1 << 20, Op: OpRead},
		{Time: time.Hour, Item: 1<<31 - 1, Offset: 1 << 40, Size: 1<<31 - 1, Op: OpWrite},
	}
	var buf bytes.Buffer
	encodeAll(t, NewNDJSONWriter(&buf), recs)
	got, err := CollectSource(NewNDJSONReader(&buf))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(recs) {
		t.Fatalf("read %d records, want %d", len(got), len(recs))
	}
	for i := range recs {
		if got[i] != recs[i] {
			t.Errorf("record %d: got %+v, want %+v", i, got[i], recs[i])
		}
	}
}

func TestNDJSONWriterRejectsOutOfOrder(t *testing.T) {
	w := NewNDJSONWriter(io.Discard)
	if err := w.Append(LogicalRecord{Time: time.Second, Size: 1, Op: OpRead}); err != nil {
		t.Fatal(err)
	}
	if err := w.Append(LogicalRecord{Time: 0, Size: 1, Op: OpRead}); err == nil {
		t.Fatal("out-of-order append accepted")
	}
}

func TestNDJSONReaderErrors(t *testing.T) {
	cases := []struct {
		name, in, frag string
	}{
		{"garbage", "not json\n", "line 1"},
		{"negative time", `{"t_ns":-1,"item":0,"off":0,"size":1,"op":"R"}` + "\n", "negative time"},
		{"zero size", `{"t_ns":0,"item":0,"off":0,"size":0,"op":"R"}` + "\n", "size"},
		{"bad op", `{"t_ns":0,"item":0,"off":0,"size":1,"op":"Q"}` + "\n", "invalid op"},
		{"item overflow", `{"t_ns":0,"item":2147483648,"off":0,"size":1,"op":"R"}` + "\n", "out of range"},
		{"out of order", `{"t_ns":5,"item":0,"off":0,"size":1,"op":"R"}` + "\n" +
			`{"t_ns":1,"item":0,"off":0,"size":1,"op":"R"}` + "\n", "out of order"},
	}
	for _, c := range cases {
		_, err := CollectSource(NewNDJSONReader(strings.NewReader(c.in)))
		if err == nil || !strings.Contains(err.Error(), c.frag) {
			t.Errorf("%s: error %v, want fragment %q", c.name, err, c.frag)
		}
	}
}

func TestNDJSONReaderSkipsBlankLinesAndIsSticky(t *testing.T) {
	in := "\n" + `{"t_ns":0,"item":0,"off":0,"size":1,"op":"R"}` + "\n  \n" +
		`{"t_ns":1,"item":1,"off":0,"size":1,"op":"W"}` + "\n"
	r := NewNDJSONReader(strings.NewReader(in))
	for i := 0; i < 2; i++ {
		if _, ok := r.Next(); !ok {
			t.Fatalf("record %d: stream ended: %v", i, r.Err())
		}
	}
	if r.Line() != 4 {
		t.Fatalf("second record read from line %d, want 4", r.Line())
	}
	// The clean end is sticky.
	for i := 0; i < 2; i++ {
		if _, ok := r.Next(); ok || r.Err() != nil {
			t.Fatalf("Next %d after the end: ok %v, err %v", i, ok, r.Err())
		}
	}
}

// TestNDJSONReaderTrimsOnlyJSONSpace: a line is trimmed of the space
// JSON allows (space, tab, CR) and nothing more, so a form feed, a
// vertical tab or a no-break space is an error on its line, as
// encoding/json says, not padding or a blank line.
func TestNDJSONReaderTrimsOnlyJSONSpace(t *testing.T) {
	const rec = `{"t_ns":0,"item":0,"off":0,"size":1,"op":"R"}`
	if got, err := CollectSource(NewNDJSONReader(strings.NewReader(" \t" + rec + "\r\n\t\r\n"))); err != nil || len(got) != 1 {
		t.Fatalf("JSON-space padding: %d records, %v", len(got), err)
	}
	for _, in := range []string{"\f" + rec, rec + "\v", "\u00a0\n" + rec, "\u0085"} {
		got, err := CollectSource(NewNDJSONReader(strings.NewReader(in)))
		if err == nil || !strings.Contains(err.Error(), "line 1") || len(got) != 0 {
			t.Errorf("%q: %d records, %v, want a line-1 error", in, len(got), err)
		}
	}
}
