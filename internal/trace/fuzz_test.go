package trace

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"slices"
	"strings"
	"testing"
)

// FuzzReadBinary checks that anything the binary (stream) decoder
// accepts re-encodes to the same records.
func FuzzReadBinary(f *testing.F) {
	for _, recs := range [][]LogicalRecord{
		{
			{Time: 1, Item: 2, Offset: 3, Size: 4, Op: OpRead},
			{Time: 5, Item: 1, Offset: 0, Size: 8, Op: OpWrite},
		},
		nil,
	} {
		var buf bytes.Buffer
		encodeAll(f, NewStreamWriter(&buf), recs)
		f.Add(buf.Bytes())
	}
	f.Add([]byte("garbage"))
	// Cloud-block shapes: a burst of equal timestamps against a churned
	// (large) volume ID, and a zero-length extent.
	var burstBuf bytes.Buffer
	encodeAll(f, NewStreamWriter(&burstBuf), []LogicalRecord{
		{Time: 7, Item: 2147483000, Offset: 0, Size: 4096, Op: OpWrite},
		{Time: 7, Item: 2147483000, Offset: 4096, Size: 4096, Op: OpWrite},
		{Time: 7, Item: 3, Offset: 0, Size: 0, Op: OpRead},
	})
	f.Add(burstBuf.Bytes())
	f.Fuzz(func(t *testing.T, data []byte) {
		recs, err := readAll(NewStreamReader(bytes.NewReader(data)))
		if err != nil {
			return
		}
		var out bytes.Buffer
		encodeAll(t, NewStreamWriter(&out), recs)
		again, err := readAll(NewStreamReader(&out))
		if err != nil {
			t.Fatalf("re-encoded trace failed to decode: %v", err)
		}
		if !slices.Equal(again, recs) {
			t.Fatalf("round trip changed %d records into %d", len(recs), len(again))
		}
	})
}

// FuzzReadCSV checks the CSV decoder never panics and accepted input
// survives a round trip.
func FuzzReadCSV(f *testing.F) {
	f.Add("time_ns,item,offset,size,op\n1,2,3,4,R\n")
	f.Add("5,0,0,1,W\n")
	f.Add(",,,,\n")
	f.Add("1,2147483647,0,4,R\n")              // churned-volume ID at the item ceiling
	f.Add("5,1,0,0,R\n")                       // zero-length extent: rejected
	f.Add("9,1,0,4,R\n9,2,0,4,W\n9,3,0,8,R\n") // burst: equal timestamps
	f.Fuzz(func(t *testing.T, data string) {
		recs, err := readAll(NewCSVReader(strings.NewReader(data)))
		if err != nil {
			return
		}
		var out bytes.Buffer
		encodeAll(t, NewCSVWriter(&out), recs)
		again, err := readAll(NewCSVReader(&out))
		if err != nil || !slices.Equal(again, recs) {
			t.Fatalf("round trip failed: %v", err)
		}
	})
}

// FuzzStreamReader checks the streaming decoder never panics on
// arbitrary input, and that FileSource's batched decode agrees with the
// per-record Next loop record for record and error for error (input
// without the stream magic gets it prepended, so FileSource takes the
// stream path).
func FuzzStreamReader(f *testing.F) {
	var seedBuf bytes.Buffer
	w := NewStreamWriter(&seedBuf)
	w.Append(LogicalRecord{Time: 1, Item: 1, Size: 1})
	w.Close()
	f.Add(seedBuf.Bytes())
	f.Add([]byte(streamMagic))
	var burstBuf bytes.Buffer
	bw := NewStreamWriter(&burstBuf)
	bw.Append(LogicalRecord{Time: 9, Item: 2147483000, Offset: 0, Size: 4096, Op: OpWrite})
	bw.Append(LogicalRecord{Time: 9, Item: 2147483000, Offset: 4096, Size: 0, Op: OpRead})
	bw.Close()
	f.Add(burstBuf.Bytes())
	// A run long enough for the batched decode, ending in an invalid op.
	rng := rand.New(rand.NewSource(5))
	f.Add(appendRecord(appendValid([]byte(streamMagic), rng, 300), 1, LogicalRecord{Size: 1}, 9))
	f.Fuzz(func(t *testing.T, data []byte) {
		r := NewStreamReader(bytes.NewReader(data))
		for i := 0; i < 10000; i++ {
			if _, err := r.Next(); err != nil {
				break
			}
		}
		if !bytes.HasPrefix(data, []byte(streamMagic)) {
			data = append([]byte(streamMagic), data...)
		}
		checkBatchMatchesNext(t, data)
	})
}

// FuzzNDJSONReader checks two properties: the reader never panics on
// arbitrary input, and the allocation-free line parser is a strict
// subset of encoding/json — every line the fast path accepts must
// decode to exactly what the fallback would have produced.
func FuzzNDJSONReader(f *testing.F) {
	var seedBuf bytes.Buffer
	w := NewNDJSONWriter(&seedBuf)
	w.Append(LogicalRecord{Time: 1, Item: 2147483000, Size: 4096, Op: OpWrite}) // churned-volume ID
	w.Append(LogicalRecord{Time: 1, Item: 7, Size: 512, Op: OpRead})            // burst: same timestamp
	w.Close()
	f.Add(seedBuf.Bytes())
	f.Add([]byte(`{"t_ns":5,"item":1,"off":0,"size":0,"op":"R"}`)) // zero-length extent: rejected
	f.Add([]byte(`{ "op":"W" , "size":8 , "t_ns":9 }`))            // reordered keys, padding
	f.Add([]byte(`{"t_ns":1e3,"item":1,"off":0,"size":4,"op":"R"}`))
	f.Add([]byte(`{"t_ns":-9223372036854775808,"item":0,"off":0,"size":1,"op":"W"}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, line := range bytes.Split(data, []byte("\n")) {
			if fast, ok := parseNDJSONLine(line); ok {
				var slow ndjsonRecord
				if err := json.Unmarshal(line, &slow); err != nil {
					t.Fatalf("fast path accepted %q, encoding/json rejects it: %v", line, err)
				}
				if fast != slow {
					t.Fatalf("fast path decoded %q as %+v, encoding/json as %+v", line, fast, slow)
				}
			}
		}
		r := NewNDJSONReader(bytes.NewReader(data))
		for i := 0; i < 10000; i++ {
			if _, err := r.Next(); err != nil {
				return
			}
		}
	})
}
