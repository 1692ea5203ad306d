package trace

import (
	"bytes"
	"io"
	"testing"
	"time"
)

// allocRecords synthesizes n well-formed records with the shapes the
// decoders see in practice: micro-spaced arrivals with occasional
// equal-timestamp bursts, a few dozen distinct items, mixed ops.
func allocRecords(n int) []LogicalRecord {
	recs := make([]LogicalRecord, n)
	for i := range recs {
		t := time.Duration(i) * time.Microsecond
		if i%7 == 0 && i > 0 {
			t = recs[i-1].Time // burst: same timestamp as the previous record
		}
		op := OpRead
		if i%3 == 0 {
			op = OpWrite
		}
		recs[i] = LogicalRecord{
			Time:   t,
			Item:   ItemID(i % 64),
			Offset: int64(i%64) * 4096,
			Size:   4096,
			Op:     op,
		}
	}
	// Keep times non-decreasing after the burst substitution.
	for i := 1; i < len(recs); i++ {
		if recs[i].Time < recs[i-1].Time {
			recs[i].Time = recs[i-1].Time
		}
	}
	return recs
}

// gateMarginalAllocs measures decode allocations at two input sizes and
// fails if the per-record difference exceeds limit. Fixed setup costs
// (readers, scanners, result slice headers) cancel out; only the
// per-record cost is gated.
func gateMarginalAllocs(t *testing.T, encode func([]LogicalRecord) []byte, decode func([]byte) int, limit float64) {
	t.Helper()
	const n = 2048
	small := encode(allocRecords(n))
	big := encode(allocRecords(2 * n))
	a1 := testing.AllocsPerRun(5, func() {
		if got := decode(small); got != n {
			t.Fatalf("decoded %d records, want %d", got, n)
		}
	})
	a2 := testing.AllocsPerRun(5, func() {
		if got := decode(big); got != 2*n {
			t.Fatalf("decoded %d records, want %d", got, 2*n)
		}
	})
	if per := (a2 - a1) / float64(n); per > limit {
		t.Errorf("%.4f allocs/record (%.0f allocs at n=%d, %.0f at n=%d), want <= %.4f",
			per, a1, n, a2, 2*n, limit)
	}
}

// drain counts the records a source yields, failing on a decode error.
func drain(t *testing.T, src Source) int {
	n := 0
	for _, ok := src.Next(); ok; _, ok = src.Next() {
		n++
	}
	if err := src.Err(); err != nil {
		t.Fatalf("decode failed after %d records: %v", n, err)
	}
	return n
}

// TestStreamDecodeAllocs gates the incremental binary decoder at zero
// allocations per record.
func TestStreamDecodeAllocs(t *testing.T) {
	gateMarginalAllocs(t,
		func(recs []LogicalRecord) []byte {
			var buf bytes.Buffer
			encodeAll(t, NewStreamWriter(&buf), recs)
			return buf.Bytes()
		},
		func(data []byte) int { return drain(t, NewStreamReader(bytes.NewReader(data))) },
		0)
}

// TestCSVDecodeAllocs gates the CSV decoder at zero allocations per
// record: fields are split in place and parsed without strconv's
// string conversions.
func TestCSVDecodeAllocs(t *testing.T) {
	gateMarginalAllocs(t,
		func(recs []LogicalRecord) []byte {
			var buf bytes.Buffer
			encodeAll(t, NewCSVWriter(&buf), recs)
			return buf.Bytes()
		},
		func(data []byte) int { return drain(t, NewCSVReader(bytes.NewReader(data))) },
		0)
}

// TestNDJSONDecodeAllocs gates the NDJSON decoder at zero allocations
// per record on writer-generated input, where the fast-path parser
// handles every line and encoding/json is never consulted.
func TestNDJSONDecodeAllocs(t *testing.T) {
	gateMarginalAllocs(t,
		func(recs []LogicalRecord) []byte {
			var buf bytes.Buffer
			encodeAll(t, NewNDJSONWriter(&buf), recs)
			return buf.Bytes()
		},
		func(data []byte) int { return drain(t, NewNDJSONReader(bytes.NewReader(data))) },
		0)
}

// TestMergeSteadyStateAllocs gates the k-way merge at zero allocations
// per record: after the first Next has built the tree, each record is a
// leaf-to-root replay over preallocated arrays.
func TestMergeSteadyStateAllocs(t *testing.T) {
	const k, perSource, runs = 64, 400, 10000
	srcs := make([]Source, k)
	for i, recs := range benchTraces(k, perSource) {
		srcs[i] = NewSliceSource(recs)
	}
	m := MergeSources(srcs...)
	m.Next()
	allocs := testing.AllocsPerRun(runs, func() {
		if _, ok := m.Next(); !ok {
			t.Fatal("merge ran dry inside the measured window")
		}
	})
	if allocs != 0 {
		t.Fatalf("Merged.Next allocates %.4f/record, want 0", allocs)
	}
}

// TestItemReaderSteadyStateAllocs gates the generator adapter at zero
// allocations per record, read either way: Next once its batch buffer
// exists, Fill into the caller's batch. A refill is a coroutine switch
// into a reused buffer.
func TestItemReaderSteadyStateAllocs(t *testing.T) {
	const runs = 20 * seqBatch
	endless := ItemStream{Seq: func(yield func(LogicalRecord) bool) {
		for i := 0; yield(LogicalRecord{Time: time.Duration(i), Size: 4096}); i++ {
		}
	}}
	r := endless.Open(maxTime)
	defer r.Close()
	r.Next()
	allocs := testing.AllocsPerRun(runs, func() {
		if _, ok := r.Next(); !ok {
			t.Fatal("generator ended inside the measured window")
		}
	})
	if allocs != 0 {
		t.Fatalf("ItemReader.Next allocates %.4f/record, want 0", allocs)
	}

	f := endless.Open(maxTime)
	defer f.Close()
	dst := make([]LogicalRecord, seqBatch)
	f.Fill(dst)
	allocs = testing.AllocsPerRun(runs/seqBatch, func() {
		if f.Fill(dst) != len(dst) {
			t.Fatal("generator ended inside the measured window")
		}
	}) / seqBatch
	if allocs != 0 {
		t.Fatalf("ItemReader.Fill allocates %.4f/record, want 0", allocs)
	}
}

// TestFileSourceSteadyStateAllocs gates FileSource at zero allocations
// per record on each format it sniffs: the stream's windowed decode and
// the text formats' line-by-line decode, each behind the sniffing.
func TestFileSourceSteadyStateAllocs(t *testing.T) {
	for _, format := range []struct {
		name string
		open func(io.Writer) *Writer
	}{
		{"stream", NewStreamWriter},
		{"csv", NewCSVWriter},
		{"ndjson", NewNDJSONWriter},
	} {
		t.Run(format.name, func(t *testing.T) {
			gateMarginalAllocs(t,
				func(recs []LogicalRecord) []byte {
					var buf bytes.Buffer
					encodeAll(t, format.open(&buf), recs)
					return buf.Bytes()
				},
				func(data []byte) int { return drain(t, mustFileSource(t, data)) },
				0)
		})
	}
}

// writerRecords returns allocRecords(n) with the extremes of every field
// mixed in: ten-byte varints and the longest CSV numbers, so the
// writers' room checks are crossed at every buffer boundary.
func writerRecords(n int) []LogicalRecord {
	recs := allocRecords(n)
	for i := range recs {
		if i%5 == 0 {
			recs[i].Item = -1 - ItemID(i)
			recs[i].Offset = -1 << 62
			recs[i].Size = -1 << 31
		}
	}
	return recs
}

// gateWriterAllocs requires zero allocations per Append once the writer
// has written its first record.
func gateWriterAllocs(t *testing.T, w *Writer) {
	t.Helper()
	recs := writerRecords(4096)
	base := recs[len(recs)-1].Time
	if err := w.Append(recs[0]); err != nil {
		t.Fatal(err)
	}
	i := 0
	allocs := testing.AllocsPerRun(len(recs)-1, func() {
		i++
		r := recs[i%len(recs)]
		r.Time += base * time.Duration(i/len(recs))
		if err := w.Append(r); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("Append allocates %.4f/record, want 0", allocs)
	}
}

// TestStreamWriterSteadyStateAllocs gates the stream encoder at zero
// allocations per record: each record is encoded in place in the
// buffer's free space.
func TestStreamWriterSteadyStateAllocs(t *testing.T) {
	gateWriterAllocs(t, NewStreamWriter(io.Discard))
}

// TestCSVWriterSteadyStateAllocs gates the CSV encoder the same way.
func TestCSVWriterSteadyStateAllocs(t *testing.T) {
	gateWriterAllocs(t, NewCSVWriter(io.Discard))
}

// TestNDJSONWriterSteadyStateAllocs gates the NDJSON encoder the same
// way: the object is appended in place, not marshalled.
func TestNDJSONWriterSteadyStateAllocs(t *testing.T) {
	gateWriterAllocs(t, NewNDJSONWriter(io.Discard))
}
