// Typed out-of-order errors.
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
	"encoding/binary"
	"fmt"
	"math"
	"strings"
	"time"
)

// OrderError reports a record whose timestamp precedes the previous
// record's. The decoders return it at decode time, before the record
// can reach a consumer — a k-way MergeSources fed an unsorted input
// would otherwise silently interleave the stray record into a
// plausible-looking merged stream — and Writer.Append before the record
// is encoded.
type OrderError struct {
	// Format names the codec that caught the violation: "stream", "csv"
	// or "ndjson".
	Format string
	// Record is the 0-based index of the offending record within its
	// stream; -1 when unknown.
	Record int64
	// Line is the 1-based input line for the text decoders; 0 for the
	// stream format and the writers.
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
