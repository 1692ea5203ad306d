// The codec layer: one Writer for the three trace formats, one
// line-scanning TextReader for the two text formats, and the catalog
// and placement files that accompany every trace. The per-format code
// (stream.go, csv.go, ndjson.go) is only how one record is encoded or
// parsed.

package trace

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"strconv"
	"strings"
	"time"
)

// Writer encodes logical records in one of the trace formats:
// NewStreamWriter, NewCSVWriter and NewNDJSONWriter pick the format.
// Records must be appended in time order. Each record is encoded in
// place in the buffer's free space, so Append does not allocate. Close
// flushes the buffer; it does not close the underlying writer.
type Writer struct {
	bw     *bufio.Writer
	format string
	// encode appends r's encoding to dst, given the time of the record
	// before it; an encoding is at most max bytes.
	encode func(dst []byte, r LogicalRecord, prev time.Duration) []byte
	max    int
	prev   time.Duration
	n      int64
}

// newWriter returns a Writer targeting w with head (the stream's magic
// or the CSV header) buffered at once. A failure to write it surfaces
// from Append or Close, since a bufio.Writer's errors are sticky.
func newWriter(w io.Writer, format, head string, max int, encode func([]byte, LogicalRecord, time.Duration) []byte) *Writer {
	bw := bufio.NewWriter(w)
	_, _ = bw.WriteString(head)
	return &Writer{bw: bw, format: format, encode: encode, max: max}
}

// Append encodes one record. A record earlier than the one before it
// is refused with a *OrderError.
func (w *Writer) Append(r LogicalRecord) error {
	if r.Time < w.prev {
		return &OrderError{Format: w.format, Record: w.n, Offset: -1, Prev: w.prev, Got: r.Time}
	}
	// Make room for the worst case first, so the encoding never
	// outgrows the buffer: one Write, no allocation.
	if w.bw.Available() < w.max {
		if err := w.bw.Flush(); err != nil {
			return err
		}
	}
	if _, err := w.bw.Write(w.encode(w.bw.AvailableBuffer(), r, w.prev)); err != nil {
		return err
	}
	w.prev = r.Time
	w.n++
	return nil
}

// Close flushes buffered output.
func (w *Writer) Close() error { return w.bw.Flush() }

// TextReader decodes one of the line formats, CSV or NDJSON, as a
// Source: NewCSVReader and NewNDJSONReader pick the format. Blank lines
// (and CSV header lines) are skipped wherever they appear, so
// concatenated inputs work, and lines up to 1 MiB are accepted. Every
// error names its line, and a record earlier than the one before it
// ends the stream with a *OrderError. Once the stream has ended, clean
// or not, Next yields nothing more and Err stays put.
type TextReader struct {
	sc     *bufio.Scanner
	format string
	header []byte
	// trim strips the space around a line before the blank and header
	// checks; parse decodes one non-blank trimmed line, and line is its
	// number, for the error.
	trim  func([]byte) []byte
	parse func(b []byte, line int64) (LogicalRecord, error)
	prev  time.Duration
	line  int64
	n     int64
	err   error
	done  bool
}

func newTextReader(r io.Reader, format string, header []byte, trim func([]byte) []byte, parse func([]byte, int64) (LogicalRecord, error)) *TextReader {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	return &TextReader{sc: sc, format: format, header: header, trim: trim, parse: parse}
}

// Next returns the next record.
func (r *TextReader) Next() (LogicalRecord, bool) {
	for !r.done && r.sc.Scan() {
		r.line++
		b := r.trim(r.sc.Bytes())
		if len(b) == 0 || r.header != nil && bytes.HasPrefix(b, r.header) {
			continue
		}
		rec, err := r.parse(b, r.line)
		if err == nil && rec.Time < r.prev {
			err = &OrderError{Format: r.format, Record: r.n, Line: r.line, Offset: -1, Prev: r.prev, Got: rec.Time}
		}
		if err != nil {
			r.err, r.done = err, true
			return LogicalRecord{}, false
		}
		r.prev = rec.Time
		r.n++
		return rec, true
	}
	if !r.done {
		r.done = true
		if err := r.sc.Err(); err != nil {
			r.err = fmt.Errorf("trace: %s line %d: %w", r.format, r.line+1, err)
		}
	}
	return LogicalRecord{}, false
}

// Err returns the failure that ended the stream, or nil.
func (r *TextReader) Err() error { return r.err }

// Line returns the 1-based number of the last line consumed: the line
// of the record Next last returned.
func (r *TextReader) Line() int64 { return r.line }

// parseIntBytes parses a signed decimal integer bounded by max without
// allocating on the success path. It accepts what
// strconv.ParseInt(s, 10, bits) accepts for the codec's field widths
// and returns strconv-shaped errors so the messages stay stable.
func parseIntBytes(b []byte, max int64) (int64, error) {
	fail := func(err error) (int64, error) {
		return 0, &strconv.NumError{Func: "ParseInt", Num: string(b), Err: err}
	}
	if len(b) == 0 {
		return fail(strconv.ErrSyntax)
	}
	neg := false
	i := 0
	if b[0] == '+' || b[0] == '-' {
		neg = b[0] == '-'
		i++
		if len(b) == 1 {
			return fail(strconv.ErrSyntax)
		}
	}
	var v uint64
	limit := uint64(max)
	if neg {
		limit++
	}
	for ; i < len(b); i++ {
		c := b[i]
		if c < '0' || c > '9' {
			return fail(strconv.ErrSyntax)
		}
		if v > limit/10 {
			return fail(strconv.ErrRange)
		}
		v = v*10 + uint64(c-'0')
		if v > limit {
			return fail(strconv.ErrRange)
		}
	}
	if neg {
		return -int64(v), nil
	}
	return int64(v), nil
}

// WriteCatalog encodes a catalog as "id,size,name" lines.
func WriteCatalog(w io.Writer, c *Catalog) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString("id,size,name\n"); err != nil {
		return err
	}
	for _, id := range c.IDs() {
		it := c.Item(id)
		if strings.ContainsAny(it.Name, ",\n") {
			return fmt.Errorf("trace: item name %q contains a separator", it.Name)
		}
		if _, err := fmt.Fprintf(bw, "%d,%d,%s\n", id, it.Size, it.Name); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadCatalog decodes a catalog written by WriteCatalog. IDs must be dense
// and ascending from zero, matching what Catalog.Add produces.
func ReadCatalog(r io.Reader) (*Catalog, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	c := NewCatalog()
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if line == 1 && strings.HasPrefix(text, "id,") {
			continue
		}
		if text == "" {
			continue
		}
		fields := strings.SplitN(text, ",", 3)
		if len(fields) != 3 {
			return nil, fmt.Errorf("trace: catalog line %d: want 3 fields", line)
		}
		id, err := strconv.ParseInt(fields[0], 10, 32)
		if err != nil {
			return nil, fmt.Errorf("trace: catalog line %d id: %w", line, err)
		}
		size, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("trace: catalog line %d size: %w", line, err)
		}
		got := c.Add(fields[2], size)
		if got != ItemID(id) {
			return nil, fmt.Errorf("trace: catalog line %d: non-dense id %d (expected %d)", line, id, got)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return c, nil
}

// WritePlacement encodes an item→enclosure layout as "item,enclosure"
// lines. The slice is indexed by ItemID.
func WritePlacement(w io.Writer, placement []int) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString("item,enclosure\n"); err != nil {
		return err
	}
	for item, enc := range placement {
		if _, err := fmt.Fprintf(bw, "%d,%d\n", item, enc); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadPlacement decodes a layout written by WritePlacement.
func ReadPlacement(r io.Reader) ([]int, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	var placement []int
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if line == 1 && strings.HasPrefix(text, "item,") {
			continue
		}
		if text == "" {
			continue
		}
		fields := strings.Split(text, ",")
		if len(fields) != 2 {
			return nil, fmt.Errorf("trace: placement line %d: want 2 fields", line)
		}
		item, err := strconv.ParseInt(fields[0], 10, 32)
		if err != nil {
			return nil, fmt.Errorf("trace: placement line %d item: %w", line, err)
		}
		enc, err := strconv.ParseInt(fields[1], 10, 32)
		if err != nil {
			return nil, fmt.Errorf("trace: placement line %d enclosure: %w", line, err)
		}
		if int(item) != len(placement) {
			return nil, fmt.Errorf("trace: placement line %d: non-dense item %d", line, item)
		}
		placement = append(placement, int(enc))
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return placement, nil
}
