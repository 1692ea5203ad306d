// Streaming access to binary traces: an incremental reader and an
// appending writer, so tools can process traces far larger than memory.

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

// StreamWriter encodes logical records incrementally. Records must be
// appended in time order. Close flushes the underlying buffer.
type StreamWriter struct {
	bw    *bufio.Writer
	prev  time.Duration
	count int64
	begun bool
}

// NewStreamWriter returns a writer targeting w.
func NewStreamWriter(w io.Writer) *StreamWriter {
	return &StreamWriter{bw: bufio.NewWriter(w)}
}

// Append encodes one record.
func (w *StreamWriter) Append(r LogicalRecord) error {
	if !w.begun {
		w.begun = true
		if _, err := w.bw.WriteString(streamMagic); err != nil {
			return err
		}
	}
	if r.Time < w.prev {
		return fmt.Errorf("trace: record %d out of order (%v after %v)", w.count, r.Time, w.prev)
	}
	// Encode in place into the buffer's free space, made room for first
	// so the appends never outgrow it: one Write, no allocation.
	if w.bw.Available() < maxVarintRecord {
		if err := w.bw.Flush(); err != nil {
			return err
		}
	}
	buf := w.bw.AvailableBuffer()
	buf = binary.AppendUvarint(buf, uint64(r.Time-w.prev))
	buf = binary.AppendUvarint(buf, uint64(r.Item))
	buf = binary.AppendUvarint(buf, uint64(r.Offset))
	buf = binary.AppendUvarint(buf, uint64(r.Size))
	buf = append(buf, byte(r.Op))
	if _, err := w.bw.Write(buf); err != nil {
		return err
	}
	w.prev = r.Time
	w.count++
	return nil
}

// Count returns how many records have been appended.
func (w *StreamWriter) Count() int64 { return w.count }

// Close flushes buffered output. It does not close the underlying
// writer.
func (w *StreamWriter) Close() error {
	if !w.begun {
		// An empty stream still carries the magic so readers can tell it
		// apart from a missing file.
		w.begun = true
		if _, err := w.bw.WriteString(streamMagic); err != nil {
			return err
		}
	}
	return w.bw.Flush()
}

// StreamReader decodes logical records incrementally. After any error
// (including io.EOF) the reader is sticky: further Next calls return
// the same error and Count stops advancing.
type StreamReader struct {
	br    *bufio.Reader
	prev  time.Duration
	off   int64
	count int64
	err   error
	begun bool
}

// NewStreamReader returns a reader over r.
func NewStreamReader(r io.Reader) *StreamReader {
	return &StreamReader{br: bufio.NewReader(r)}
}

// Next returns the next record. It returns io.EOF at the clean end of
// the stream and a descriptive error on corruption.
func (r *StreamReader) Next() (LogicalRecord, error) {
	if r.err != nil {
		return LogicalRecord{}, r.err
	}
	if !r.begun {
		r.begun = true
		magic := make([]byte, len(streamMagic))
		if _, err := io.ReadFull(r.br, magic); err != nil {
			r.err = fmt.Errorf("trace: reading stream magic: %w", err)
			return LogicalRecord{}, r.err
		}
		if string(magic) != streamMagic {
			r.err = errors.New("trace: not an ESM stream trace")
			return LogicalRecord{}, r.err
		}
		r.off = int64(len(streamMagic))
	}
	// Buffer one worst-case record for the buffered decode. A clean
	// stream ends exactly between records, so no bytes at all at EOF is
	// not a truncation error.
	if buf, err := r.br.Peek(maxVarintRecord); len(buf) == 0 && err == io.EOF {
		r.err = io.EOF
		return LogicalRecord{}, io.EOF
	}
	var one [1]LogicalRecord
	if r.decodeBuffered(one[:]) == 1 {
		return one[0], nil
	}
	// Declined: a record cut short by the end of input, or malformed.
	// The byte-wise decode names the failing field.
	raw, n, err := readVarintRecordSlow(r.br, func(field int, err error) error {
		if field == 0 && err == io.EOF {
			// Truncation exactly at a record boundary: clean end of stream.
			return io.EOF
		}
		return fmt.Errorf("trace: stream record %d %s: %w", r.count, streamFieldNames[field], err)
	})
	if err != nil {
		r.err = err
		return LogicalRecord{}, r.err
	}
	if raw.op > uint8(OpWrite) {
		r.err = fmt.Errorf("trace: stream record %d has invalid op %d", r.count, raw.op)
		return LogicalRecord{}, r.err
	}
	t, ok := addDelta(r.prev, raw.dt)
	if !ok {
		r.err = &OrderError{
			Format: "stream", Record: r.count, Offset: r.off,
			Prev: r.prev, Got: r.prev + time.Duration(raw.dt),
		}
		return LogicalRecord{}, r.err
	}
	r.prev = t
	r.off += int64(n)
	r.count++
	return LogicalRecord{
		Time:   t,
		Item:   ItemID(raw.item),
		Offset: int64(raw.off),
		Size:   int32(raw.size),
		Op:     Op(raw.op),
	}, nil
}

// fill decodes records into dst until it is full or decoding stops; the
// error is what stopped it, io.EOF at the clean end. Runs of records
// lying wholly in the reader's buffered bytes go through the tight
// decodeBuffered loop; whatever that loop declines (the magic, a record
// straddling the buffer edge, anything malformed) is decoded by Next,
// so every record and error is exactly the one Next alone would yield.
func (r *StreamReader) fill(dst []LogicalRecord) (int, error) {
	n := r.decodeBuffered(dst)
	for n < len(dst) {
		rec, err := r.Next()
		if err != nil {
			return n, err
		}
		dst[n] = rec
		n++
		n += r.decodeBuffered(dst[n:])
	}
	return n, nil
}

// decodeBuffered decodes into dst every record whose worst-case
// encoding (maxVarintRecord) lies in the reader's buffered bytes, then
// consumes them with one Discard. It stops before the first record it
// cannot vouch for — an overlong varint, an invalid op or a delta
// addDelta rejects — and leaves it for Next to decode or report. It
// decodes nothing before the magic has been read or after an error.
func (r *StreamReader) decodeBuffered(dst []LogicalRecord) int {
	if !r.begun || r.err != nil {
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

// streamFieldNames maps readVarintRecordSlow's field indices to the stream
// format's error vocabulary.
var streamFieldNames = [...]string{"time", "field 1", "field 2", "field 3", "op"}

// Count returns how many records have been decoded so far.
func (r *StreamReader) Count() int64 { return r.count }
