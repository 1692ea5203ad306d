// The binary stream trace format (ESMSTR1): compact delta/varint
// records, decoded in windows straight off the read buffer, so tools
// can process traces far larger than memory.

package trace

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/bits"
	"time"
)

// streamMagic identifies the streaming binary format, which carries no
// up-front record count (the stream ends at EOF).
const streamMagic = "ESMSTR1\n"

// NewStreamWriter returns a Writer of the binary stream format: the
// magic, then per record the uvarint time delta, item, offset and size
// and one op byte. An empty stream still carries the magic, so readers
// can tell it apart from a missing file.
func NewStreamWriter(w io.Writer) *Writer {
	return newWriter(w, "stream", streamMagic, maxVarintRecord, appendStream)
}

func appendStream(buf []byte, r LogicalRecord, prev time.Duration) []byte {
	buf = binary.AppendUvarint(buf, uint64(r.Time-prev))
	buf = binary.AppendUvarint(buf, uint64(r.Item))
	buf = binary.AppendUvarint(buf, uint64(r.Offset))
	buf = binary.AppendUvarint(buf, uint64(r.Size))
	return append(buf, byte(r.Op))
}

// streamWindow is how many decoded records a StreamReader holds: one
// refill decodes up to a window's worth, so the per-record cost of Next
// is an index into it. It is odd so that timing every 64th Next, as the
// benchmark's trace.next_ns does, meets refills at their true rate of
// one call in streamWindow; a multiple of 64 would put a refill into
// every fourth timed call.
const streamWindow = 255

// StreamReader decodes the binary stream format as a Source. It holds
// one window of decoded records and the decoder's fixed buffers, so a
// multi-gigabyte trace replays in O(items) memory. Every error names
// the record by index, and a delta that runs time backwards ends the
// stream with a *OrderError. Once the stream has ended, clean or not,
// Next yields nothing more and Err stays put.
type StreamReader struct {
	br     *bufio.Reader
	prev   time.Duration
	off    int64
	count  int64
	err    error
	begun  bool
	done   bool
	window [streamWindow]LogicalRecord
	pos, n int
}

// NewStreamReader returns a reader over r.
func NewStreamReader(r io.Reader) *StreamReader {
	return &StreamReader{br: bufio.NewReader(r)}
}

// Next returns the next record.
func (r *StreamReader) Next() (LogicalRecord, bool) {
	if r.pos == r.n && !r.refill() {
		return LogicalRecord{}, false
	}
	rec := r.window[r.pos]
	r.pos++
	return rec, true
}

// Err returns the decoding failure that ended the stream, or nil.
func (r *StreamReader) Err() error { return r.err }

// refill decodes the next window: the run of records lying wholly in
// the reader's buffered bytes (decodeBuffered), or, when there is none,
// one record decoded by decodeOne and the run after it. So a refill
// waits for input only while it has no record at all, and every record
// and error is exactly the one decodeOne alone would yield. It reports
// false once the stream has ended.
func (r *StreamReader) refill() bool {
	n := r.decodeBuffered(r.window[:])
	if n == 0 {
		rec, ok := r.decodeOne()
		if !ok {
			return false
		}
		r.window[0] = rec
		n = 1 + r.decodeBuffered(r.window[1:])
	}
	r.pos, r.n = 0, n
	return true
}

// decodeOne decodes the next record a field at a time, reading the
// magic first: the decode of whatever decodeBuffered declines (the
// magic, a record straddling the buffer's edge, anything malformed),
// whose byte-wise reads name the failing field. It reports false once
// the stream has ended.
func (r *StreamReader) decodeOne() (LogicalRecord, bool) {
	if r.done {
		return LogicalRecord{}, false
	}
	if !r.begun {
		r.begun = true
		magic := make([]byte, len(streamMagic))
		if _, err := io.ReadFull(r.br, magic); err != nil {
			return r.fail(fmt.Errorf("trace: reading stream magic: %w", err))
		}
		if string(magic) != streamMagic {
			return r.fail(errors.New("trace: not an ESM stream trace"))
		}
		r.off = int64(len(streamMagic))
	}
	// Buffer one worst-case record, so the reads below never cross a
	// buffer refill and the bytes they drain are the record's size. A
	// clean stream ends exactly between records.
	if buf, err := r.br.Peek(maxVarintRecord); len(buf) == 0 && err == io.EOF {
		return r.fail(nil)
	}
	start := r.br.Buffered()
	var f [4]uint64 // time delta, item, offset, size
	for i := range f {
		v, err := binary.ReadUvarint(r.br)
		if err != nil {
			return r.fail(fmt.Errorf("trace: stream record %d %s: %w", r.count, streamFieldNames[i], err))
		}
		f[i] = v
	}
	op, err := r.br.ReadByte()
	if err != nil {
		return r.fail(fmt.Errorf("trace: stream record %d op: %w", r.count, err))
	}
	if op > uint8(OpWrite) {
		return r.fail(fmt.Errorf("trace: stream record %d has invalid op %d", r.count, op))
	}
	t, ok := addDelta(r.prev, f[0])
	if !ok {
		return r.fail(&OrderError{
			Format: "stream", Record: r.count, Offset: r.off,
			Prev: r.prev, Got: r.prev + time.Duration(f[0]),
		})
	}
	r.prev = t
	r.off += int64(start - r.br.Buffered())
	r.count++
	return LogicalRecord{Time: t, Item: ItemID(f[1]), Offset: int64(f[2]), Size: int32(f[3]), Op: Op(op)}, true
}

// fail ends the stream with err, nil at its clean end.
func (r *StreamReader) fail(err error) (LogicalRecord, bool) {
	r.err, r.done = err, true
	return LogicalRecord{}, false
}

// decodeBuffered decodes into dst every record whose worst-case
// encoding (maxVarintRecord) lies in the reader's buffered bytes, then
// consumes them with one Discard. It stops before the first record it
// cannot vouch for — an overlong varint, an invalid op or a delta
// addDelta rejects — and leaves it for decodeOne to decode or report. It
// decodes nothing before the magic has been read or after the end.
func (r *StreamReader) decodeBuffered(dst []LogicalRecord) int {
	if !r.begun || r.done {
		return 0
	}
	buf, _ := r.br.Peek(r.br.Buffered())
	prev := r.prev
	pos, n := 0, 0
	for ; n < len(dst) && len(buf)-pos >= maxVarintRecord; n++ {
		p := pos
		dt, ok1 := uvarintAt(buf, &p)
		item, ok2 := uvarintAt(buf, &p)
		off, ok3 := uvarintAt(buf, &p)
		size, ok4 := uvarintAt(buf, &p)
		op := buf[p]
		if !(ok1 && ok2 && ok3 && ok4) || op > uint8(OpWrite) {
			break
		}
		t, ok := addDelta(prev, dt)
		if !ok {
			break
		}
		dst[n] = LogicalRecord{Time: t, Item: ItemID(item), Offset: int64(off), Size: int32(size), Op: Op(op)}
		prev = t
		pos = p + 1
	}
	if pos > 0 {
		// Cannot fail: the bytes are buffered.
		_, _ = r.br.Discard(pos)
		r.prev = prev
		r.off += int64(pos)
		r.count += int64(n)
	}
	return n
}

// uvarintAt decodes the uvarint at b[*pos:] and advances *pos past it.
// The caller guarantees b[*pos:] holds at least binary.MaxVarintLen64
// bytes; ok is false for an overlong encoding, which leaves *pos where
// it was. A one-byte value is a single test; values of up to eight
// bytes are gathered from one 64-bit load without a per-byte loop, and
// only nine- and ten-byte values reach the general decoder.
func uvarintAt(b []byte, pos *int) (v uint64, ok bool) {
	w := binary.LittleEndian.Uint64(b[*pos:])
	if w&0x80 == 0 {
		*pos++
		return w & 0x7f, true
	}
	// The first byte with its continuation bit clear ends the value.
	last := ^w & 0x8080808080808080
	if last == 0 {
		v, n := binary.Uvarint(b[*pos:])
		if n <= 0 {
			return 0, false
		}
		*pos += n
		return v, true
	}
	n := bits.TrailingZeros64(last)/8 + 1
	// Keep the value's n bytes, drop their continuation bits and close
	// the gaps pairwise: 7-bit groups into 14, 28 and then 56 bits.
	v = w & (1<<(8*n) - 1) & 0x7f7f7f7f7f7f7f7f
	v = v&0x007f007f007f007f | v&0x7f007f007f007f00>>1
	v = v&0x00003fff00003fff | v&0x3fff00003fff0000>>2
	v = v&0x000000000fffffff | v&0x0fffffff00000000>>4
	*pos += n
	return v, true
}

// streamFieldNames names decodeOne's four uvarint fields in its errors.
var streamFieldNames = [...]string{"time", "field 1", "field 2", "field 3"}
