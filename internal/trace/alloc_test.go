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

// drain counts the records an incremental reader yields.
func drain(t *testing.T, r incrementalReader) int {
	n := 0
	for {
		if _, err := r.Next(); err != nil {
			if err != io.EOF {
				t.Fatalf("decode failed after %d records: %v", n, err)
			}
			return n
		}
		n++
	}
}

// TestBinaryDecodeAllocs gates the batch binary decoder at zero
// allocations per record — the peek-and-discard fast path must never
// fall back to allocating per-record work on well-formed input.
func TestBinaryDecodeAllocs(t *testing.T) {
	gateMarginalAllocs(t,
		func(recs []LogicalRecord) []byte {
			var buf bytes.Buffer
			if err := WriteBinary(&buf, recs); err != nil {
				t.Fatal(err)
			}
			return buf.Bytes()
		},
		func(data []byte) int {
			recs, err := ReadBinary(bytes.NewReader(data))
			if err != nil {
				t.Fatalf("decode failed: %v", err)
			}
			return len(recs)
		},
		0)
}

// TestStreamDecodeAllocs gates the incremental binary decoder at zero
// allocations per record.
func TestStreamDecodeAllocs(t *testing.T) {
	gateMarginalAllocs(t,
		func(recs []LogicalRecord) []byte {
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
			if err := WriteCSV(&buf, recs); err != nil {
				t.Fatal(err)
			}
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
			w := NewNDJSONWriter(&buf)
			for _, r := range recs {
				if err := w.Append(r); err != nil {
					t.Fatal(err)
				}
			}
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
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

// TestSeqSourceSteadyStateAllocs gates the generator adapter at zero
// allocations per record once its batch buffer exists: a batch refill
// is a coroutine switch into a reused buffer.
func TestSeqSourceSteadyStateAllocs(t *testing.T) {
	const runs = 20 * seqBatch
	src := NewSeqSource(func(yield func(LogicalRecord) bool) {
		for i := 0; yield(LogicalRecord{Time: time.Duration(i), Size: 4096}); i++ {
		}
	})
	defer src.Close()
	src.Next()
	allocs := testing.AllocsPerRun(runs, func() {
		if _, ok := src.Next(); !ok {
			t.Fatal("generator ended inside the measured window")
		}
	})
	if allocs != 0 {
		t.Fatalf("SeqSource.Next allocates %.4f/record, want 0", allocs)
	}
}
