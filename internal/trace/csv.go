// The CSV trace format: a "time_ns,item,offset,size,op" header, then
// one line per record. Esmd's stdin, the fleet's CSV ingest and
// FileSource all decode it through NewCSVReader.

package trace

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"strconv"
	"time"
)

// csvHeader is the header prefix tolerated (and skipped) on any line.
var csvHeader = []byte("time_ns")

// maxCSVLine bounds one encoded CSV line: four integers of at most 20
// characters, an op name (at most "Op(255)"), four commas and the
// newline.
const maxCSVLine = 4*20 + 7 + 5

// NewCSVWriter returns a Writer of "time_ns,item,offset,size,op" lines
// under a header row.
func NewCSVWriter(w io.Writer) *Writer {
	return newWriter(w, "csv", "time_ns,item,offset,size,op\n", maxCSVLine, appendCSV)
}

func appendCSV(buf []byte, r LogicalRecord, _ time.Duration) []byte {
	buf = strconv.AppendInt(buf, int64(r.Time), 10)
	buf = append(buf, ',')
	buf = strconv.AppendInt(buf, int64(r.Item), 10)
	buf = append(buf, ',')
	buf = strconv.AppendInt(buf, r.Offset, 10)
	buf = append(buf, ',')
	buf = strconv.AppendInt(buf, int64(r.Size), 10)
	buf = append(buf, ',')
	buf = append(buf, r.Op.String()...)
	return append(buf, '\n')
}

// NewCSVReader returns a TextReader of "time_ns,item,offset,size,op"
// lines.
func NewCSVReader(r io.Reader) *TextReader {
	return newTextReader(r, "csv", csvHeader, bytes.TrimSpace, parseCSVFields)
}

// parseCSVFields decodes one non-empty data line from its raw bytes
// without allocating: fields are split in place and the integers parsed
// with parseIntBytes. Error paths fall back to allocating formatting.
func parseCSVFields(b []byte, line int64) (LogicalRecord, error) {
	var fields [5][]byte
	n := 0
	start := 0
	for i := 0; i <= len(b); i++ {
		if i == len(b) || b[i] == ',' {
			if n == 5 {
				return LogicalRecord{}, fmt.Errorf("trace: line %d: want 5 fields, got %d", line, bytes.Count(b, []byte{','})+1)
			}
			fields[n] = b[start:i]
			n++
			start = i + 1
		}
	}
	if n != 5 {
		return LogicalRecord{}, fmt.Errorf("trace: line %d: want 5 fields, got %d", line, n)
	}
	t, err := parseIntBytes(fields[0], math.MaxInt64)
	if err != nil {
		return LogicalRecord{}, fmt.Errorf("trace: line %d time: %w", line, err)
	}
	item, err := parseIntBytes(fields[1], math.MaxInt32)
	if err != nil {
		return LogicalRecord{}, fmt.Errorf("trace: line %d item: %w", line, err)
	}
	off, err := parseIntBytes(fields[2], math.MaxInt64)
	if err != nil {
		return LogicalRecord{}, fmt.Errorf("trace: line %d offset: %w", line, err)
	}
	size, err := parseIntBytes(fields[3], math.MaxInt32)
	if err != nil {
		return LogicalRecord{}, fmt.Errorf("trace: line %d size: %w", line, err)
	}
	var op Op
	switch {
	case len(fields[4]) == 1 && fields[4][0] == 'R':
		op = OpRead
	case len(fields[4]) == 1 && fields[4][0] == 'W':
		op = OpWrite
	default:
		return LogicalRecord{}, fmt.Errorf("trace: line %d: invalid op %q", line, string(fields[4]))
	}
	if t < 0 {
		return LogicalRecord{}, fmt.Errorf("trace: line %d: negative time %d", line, t)
	}
	if size <= 0 {
		return LogicalRecord{}, fmt.Errorf("trace: line %d: non-positive size %d", line, size)
	}
	return LogicalRecord{
		Time:   time.Duration(t),
		Item:   ItemID(item),
		Offset: off,
		Size:   int32(size),
		Op:     op,
	}, nil
}
