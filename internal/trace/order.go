// Typed out-of-order decode errors and the byte-wise varint decode.
//
// Every on-disk codec promises non-decreasing timestamps; a record that
// breaks the promise used to surface in three different ways (a plain
// fmt.Errorf from the text readers, a silent wrap-around in the varint
// readers, or a reordering inside a downstream k-way merge). OrderError
// is the single typed form: it carries enough position information
// (record index, line, byte offset) to point at the offending record in
// any format, and errors.As lets callers distinguish "your trace is
// unsorted" from "your trace is corrupt".

package trace

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"math"
	"strings"
	"time"
)

// OrderError reports a decoded record whose timestamp precedes the
// previous record's. The decoders return it at decode time, before the
// record can reach a consumer — a k-way MergeSources fed an unsorted
// input would otherwise silently interleave the stray record into a
// plausible-looking merged stream.
type OrderError struct {
	// Format names the codec that caught the violation: "stream", "csv"
	// or "ndjson".
	Format string
	// Record is the 0-based index of the offending record within its
	// stream; -1 when unknown.
	Record int64
	// Line is the 1-based input line for the text formats; 0 for the
	// stream format.
	Line int64
	// Offset is the byte offset of the record for the stream format; -1
	// when not tracked.
	Offset int64
	// Prev and Got are the previous (valid) and offending timestamps.
	Prev, Got time.Duration
}

// Error renders the position in the format's natural coordinates.
func (e *OrderError) Error() string {
	var b strings.Builder
	fmt.Fprintf(&b, "trace: %s record", e.Format)
	if e.Record >= 0 {
		fmt.Fprintf(&b, " %d", e.Record)
	}
	if e.Line > 0 {
		fmt.Fprintf(&b, " (line %d)", e.Line)
	}
	if e.Offset >= 0 {
		fmt.Fprintf(&b, " (byte %d)", e.Offset)
	}
	fmt.Fprintf(&b, " out of order (%v after %v)", e.Got, e.Prev)
	return b.String()
}

// addDelta applies an unsigned time delta to prev, reporting ok=false
// when the sum does not fit in a time.Duration. An overflowing delta is
// the varint formats' only way of encoding time going backwards (the
// wrapped sum would be negative), so the callers turn !ok into an
// OrderError instead of silently emitting a wrapped timestamp.
func addDelta(prev time.Duration, dt uint64) (time.Duration, bool) {
	if dt > uint64(math.MaxInt64-prev) {
		return 0, false
	}
	return prev + time.Duration(dt), true
}

// maxVarintRecord is the worst-case encoded size of one trace record:
// four maximum-length uvarints plus the op byte.
const maxVarintRecord = 4*binary.MaxVarintLen64 + 1

// varintRecord is one decoded varint-format record before validation.
type varintRecord struct {
	dt, item, off, size uint64
	op                  byte
}

// readVarintRecordSlow decodes one delta/varint record (4 uvarints + 1
// op byte) from br a byte at a time: the decode for a record the
// buffered decode declines (near the end of the buffered window, or
// malformed), yielding the precise per-field error for truncated or
// overlong input. n is the encoded size consumed.
//
// fieldErr wraps a field's decode failure for the caller's error
// vocabulary; field 0 is the time delta, 1..3 are item/offset/size and
// 4 is the op byte.
func readVarintRecordSlow(br *bufio.Reader, fieldErr func(field int, err error) error) (rec varintRecord, n int, err error) {
	start := br.Buffered()
	for f, dst := range [...]*uint64{&rec.dt, &rec.item, &rec.off, &rec.size} {
		v, err := binary.ReadUvarint(br)
		if err != nil {
			return varintRecord{}, 0, fieldErr(f, err)
		}
		*dst = v
	}
	op, err := br.ReadByte()
	if err != nil {
		return varintRecord{}, 0, fieldErr(4, err)
	}
	rec.op = op
	// Consumed size from the buffer drain; refills mid-record make this
	// an approximation, which only the byte-offset diagnostics use.
	if used := start - br.Buffered(); used > 0 {
		n = used
	}
	return rec, n, nil
}
