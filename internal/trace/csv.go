// Streaming CSV access to logical traces: the appending, sticky-error
// sibling of the stream and NDJSON codecs. Every CSV consumer (the
// FileSource text path, esmd's stdin, live ingest) reads through
// CSVReader, so all get the same semantics: header and blank lines
// skipped wherever they appear (concatenated streams work),
// allocation-free decode of data lines, monotonic timestamps enforced
// at decode time with a typed *OrderError, and a sticky error after
// which Next makes no progress and Count stays put.

package trace

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"strconv"
	"time"
)

// csvHeader is the header prefix tolerated (and skipped) on any line.
var csvHeader = []byte("time_ns")

// maxCSVLine bounds one encoded CSV line: four integers of at most 20
// characters, an op name (at most "Op(255)"), four commas and the
// newline.
const maxCSVLine = 4*20 + 7 + 5

// CSVWriter encodes logical records as "time_ns,item,offset,size,op"
// lines under a header row. Records must be appended in time order.
// Close flushes the underlying buffer; it does not close the writer.
type CSVWriter struct {
	bw    *bufio.Writer
	prev  time.Duration
	count int64
}

// NewCSVWriter returns a writer targeting w. The header row is
// buffered at once; a failure to write it surfaces from Append or
// Close, since a bufio.Writer's errors are sticky.
func NewCSVWriter(w io.Writer) *CSVWriter {
	bw := bufio.NewWriter(w)
	_, _ = bw.WriteString("time_ns,item,offset,size,op\n")
	return &CSVWriter{bw: bw}
}

// Append encodes one record.
func (w *CSVWriter) Append(r LogicalRecord) error {
	if r.Time < w.prev {
		return fmt.Errorf("trace: csv record %d out of order (%v after %v)", w.count, r.Time, w.prev)
	}
	// Build the line in place in the buffer's free space, made room for
	// first so the appends never outgrow it: one Write, no allocation.
	if w.bw.Available() < maxCSVLine {
		if err := w.bw.Flush(); err != nil {
			return err
		}
	}
	buf := w.bw.AvailableBuffer()
	buf = strconv.AppendInt(buf, int64(r.Time), 10)
	buf = append(buf, ',')
	buf = strconv.AppendInt(buf, int64(r.Item), 10)
	buf = append(buf, ',')
	buf = strconv.AppendInt(buf, r.Offset, 10)
	buf = append(buf, ',')
	buf = strconv.AppendInt(buf, int64(r.Size), 10)
	buf = append(buf, ',')
	buf = append(buf, r.Op.String()...)
	buf = append(buf, '\n')
	if _, err := w.bw.Write(buf); err != nil {
		return err
	}
	w.prev = r.Time
	w.count++
	return nil
}

// Count returns how many records have been appended.
func (w *CSVWriter) Count() int64 { return w.count }

// Close flushes buffered output.
func (w *CSVWriter) Close() error { return w.bw.Flush() }

// CSVReader decodes logical records from "time_ns,item,offset,size,op"
// lines. Records must be in time order.
type CSVReader struct {
	sc    *bufio.Scanner
	prev  int64 // previous record's time in ns; -1 before the first
	line  int64
	count int64
	err   error
}

// NewCSVReader returns a reader over r. Lines up to 1 MiB are accepted.
func NewCSVReader(r io.Reader) *CSVReader {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	return &CSVReader{sc: sc, prev: -1}
}

// Next returns the next record. It returns io.EOF at the clean end of
// the input and a line-numbered error on corruption; after any error
// (including EOF) further calls return the same error and Count stops
// advancing.
func (r *CSVReader) Next() (LogicalRecord, error) {
	if r.err != nil {
		return LogicalRecord{}, r.err
	}
	for r.sc.Scan() {
		r.line++
		b := bytes.TrimSpace(r.sc.Bytes())
		if len(b) == 0 || bytes.HasPrefix(b, csvHeader) {
			continue
		}
		rec, err := parseCSVFields(b, int(r.line))
		if err != nil {
			r.err = err
			return LogicalRecord{}, r.err
		}
		if rec.Time < 0 {
			r.err = fmt.Errorf("trace: line %d: negative time %d", r.line, int64(rec.Time))
			return LogicalRecord{}, r.err
		}
		if rec.Size <= 0 {
			r.err = fmt.Errorf("trace: line %d: non-positive size %d", r.line, rec.Size)
			return LogicalRecord{}, r.err
		}
		if int64(rec.Time) < r.prev {
			r.err = &OrderError{
				Format: "csv", Record: r.count, Line: r.line, Offset: -1,
				Prev: time.Duration(r.prev), Got: rec.Time,
			}
			return LogicalRecord{}, r.err
		}
		r.prev = int64(rec.Time)
		r.count++
		return rec, nil
	}
	if err := r.sc.Err(); err != nil {
		r.err = fmt.Errorf("trace: csv line %d: %w", r.line+1, err)
		return LogicalRecord{}, r.err
	}
	r.err = io.EOF
	return LogicalRecord{}, io.EOF
}

// Count returns how many records have been decoded so far.
func (r *CSVReader) Count() int64 { return r.count }

// Line returns the 1-based number of the last line consumed.
func (r *CSVReader) Line() int64 { return r.line }
