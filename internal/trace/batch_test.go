package trace

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// fileBufSize is the bufio.Reader size NewFileSource decodes through;
// its edges are where a stream record straddles two buffer fills.
const fileBufSize = 64 << 10

// checkBatchMatchesNext drains data through a FileSource (the stream's
// windowed decode) and through a bare decodeOne loop, and fails unless
// both yield the same records and the same final error. data must open
// with the stream magic.
func checkBatchMatchesNext(t testing.TB, data []byte) {
	t.Helper()
	r := NewStreamReader(bytes.NewReader(data))
	var want []LogicalRecord
	for rec, ok := r.decodeOne(); ok; rec, ok = r.decodeOne() {
		want = append(want, rec)
	}
	fs := mustFileSource(t, data)
	var got []LogicalRecord
	for rec, ok := fs.Next(); ok; rec, ok = fs.Next() {
		got = append(got, rec)
	}
	if !slices.Equal(got, want) {
		i := 0
		for i < len(got) && i < len(want) && got[i] == want[i] {
			i++
		}
		t.Fatalf("FileSource decoded %d records, decodeOne %d; first difference at record %d", len(got), len(want), i)
	}
	if g, w := fmt.Sprint(fs.Err()), fmt.Sprint(r.Err()); g != w {
		t.Fatalf("FileSource error %q, decodeOne error %q", g, w)
	}
	// Errors and the end of the stream are sticky.
	if _, ok := fs.Next(); ok || fmt.Sprint(fs.Err()) != fmt.Sprint(r.Err()) {
		t.Fatalf("FileSource not sticky after its end: err %v", fs.Err())
	}
}

// appendRecord appends one record's stream encoding with an explicit
// time delta and raw op byte, so tests can write what the writer never
// would.
func appendRecord(b []byte, dt uint64, r LogicalRecord, op byte) []byte {
	b = binary.AppendUvarint(b, dt)
	b = binary.AppendUvarint(b, uint64(r.Item))
	b = binary.AppendUvarint(b, uint64(r.Offset))
	b = binary.AppendUvarint(b, uint64(r.Size))
	return append(b, op)
}

// appendValid appends n valid records of varied encoded sizes; the
// offsets take every uvarint length from one to ten bytes.
func appendValid(b []byte, rng *rand.Rand, n int) []byte {
	for i := 0; i < n; i++ {
		r := LogicalRecord{
			Item:   ItemID(rng.Intn(1 << (7 * (1 + rng.Intn(4))))),
			Offset: int64(rng.Uint64() >> max(0, 64-7*(1+rng.Intn(10)))),
			Size:   int32(1 + rng.Intn(1<<20)),
		}
		b = appendRecord(b, uint64(rng.Intn(1<<(7*(1+rng.Intn(3))))), r, byte(rng.Intn(2)))
	}
	return b
}

// padTo appends valid records until len(b) == at exactly: five-byte
// records while the gap allows, then one of five to nine bytes (its
// offset field takes one to five bytes).
func padTo(b []byte, at int) []byte {
	for at-len(b) >= 10 {
		b = appendRecord(b, 0, LogicalRecord{Size: 1}, byte(OpRead))
	}
	if gap := at - len(b); gap > 0 {
		if gap < 5 {
			panic("padTo: gap too short for a record")
		}
		b = appendRecord(b, 0, LogicalRecord{Offset: 1 << (7 * (gap - 5)), Size: 1}, byte(OpWrite))
	}
	return b
}

// streamWithBadRecord builds a stream whose record starting at byte at
// is bad, surrounded by valid records.
func streamWithBadRecord(rng *rand.Rand, bad []byte, at int) []byte {
	b := appendValid([]byte(streamMagic), rng, (at-200)/20)
	if len(b) > at-20 {
		panic("streamWithBadRecord: prefix overran the target")
	}
	b = padTo(b, at)
	b = append(b, bad...)
	return appendValid(b, rng, 100)
}

// TestFileSourceBatchMatchesNext is the differential test of the
// windowed stream decode: on valid, truncated and corrupt streams, a
// FileSource must yield exactly the records and error of the
// one-record decodeOne loop.
func TestFileSourceBatchMatchesNext(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	one := LogicalRecord{Item: 1, Offset: 1, Size: 1}
	bads := map[string][]byte{
		"invalid op":      appendRecord(nil, 1, one, 9),
		"backwards delta": appendRecord(nil, math.MaxUint64, one, byte(OpRead)),
		"overlong varint": append(bytes.Repeat([]byte{0x80}, 10), 0x01, 1, 1, 1, 0),
	}
	cases := map[string][]byte{
		"valid, over three buffers": appendValid([]byte(streamMagic), rng, 4*fileBufSize/10),
		"magic only":                []byte(streamMagic),
	}
	for name, bad := range bads {
		for where, at := range map[string]int{
			// The first buffer fill ends at fileBufSize; starting three
			// bytes before it puts the record across the edge.
			"straddling the buffer edge": fileBufSize - 3,
			"inside the buffer":          fileBufSize / 2,
			"inside the second buffer":   fileBufSize + 3000,
		} {
			cases[name+" "+where] = streamWithBadRecord(rng, bad, at)
		}
	}
	for name, data := range cases {
		t.Run(name, func(t *testing.T) { checkBatchMatchesNext(t, data) })
	}
	if len(cases["valid, over three buffers"]) <= 3*fileBufSize {
		t.Fatalf("valid stream is %d bytes, want over %d", len(cases["valid, over three buffers"]), 3*fileBufSize)
	}

	// Every truncation point of a short stream. Prefixes shorter than
	// the magic are sniffed as other formats, so they start at the magic.
	short := appendValid([]byte(streamMagic), rng, 40)
	t.Run("truncations", func(t *testing.T) {
		for cut := len(streamMagic); cut <= len(short); cut++ {
			checkBatchMatchesNext(t, short[:cut])
		}
	})
}

// TestUvarintAtMatchesUvarint checks the record loop's uvarint decoder
// against binary.Uvarint at both ends of every encoded length and on
// overlong encodings, with arbitrary bytes following the value.
func TestUvarintAtMatchesUvarint(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	var inputs [][]byte
	for k := 0; k <= 64; k += 7 {
		for _, v := range []uint64{1<<k - 1, 1 << k, 1<<k + 1, math.MaxUint64 >> (64 - max(k, 1))} {
			inputs = append(inputs, binary.AppendUvarint(nil, v))
		}
	}
	inputs = append(inputs,
		binary.AppendUvarint(nil, math.MaxUint64),
		append(bytes.Repeat([]byte{0xff}, 9), 0x02),  // ten bytes overflowing 64 bits
		append(bytes.Repeat([]byte{0x80}, 10), 0x01), // eleven bytes
	)
	for _, in := range inputs {
		buf := make([]byte, len(in)+binary.MaxVarintLen64)
		rng.Read(buf[len(in):])
		copy(buf, in)
		want, n := binary.Uvarint(buf)
		pos := 0
		got, ok := uvarintAt(buf, &pos)
		if ok != (n > 0) || (ok && (got != want || pos != n)) || (!ok && pos != 0) {
			t.Errorf("% x: uvarintAt = %d, ok %v, pos %d; binary.Uvarint = %d, n %d", in, got, ok, pos, want, n)
		}
	}
}
