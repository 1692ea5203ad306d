// NDJSON access to logical traces: one JSON object per line, the wire
// format of the fleet control plane's live ingest endpoint. It is the
// self-describing sibling of the binary stream codec — trivially
// produced by anything that can print JSON, at the cost of a fatter
// encoding.

package trace

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strconv"
	"time"
)

// ndjsonRecord is the wire form of one LogicalRecord.
type ndjsonRecord struct {
	TimeNS int64  `json:"t_ns"`
	Item   int64  `json:"item"`
	Offset int64  `json:"off"`
	Size   int32  `json:"size"`
	Op     string `json:"op"`
}

// maxNDJSONLine bounds one encoded NDJSON line: the keys and
// punctuation, two integers of at most 20 characters and two of at
// most 11, and an op name (at most "Op(255)").
const maxNDJSONLine = len(`{"t_ns":,"item":,"off":,"size":,"op":""}`+"\n") + 2*20 + 2*11 + 7

// NewNDJSONWriter returns a Writer of newline-delimited JSON objects,
// each the bytes json.Marshal gives an ndjsonRecord.
func NewNDJSONWriter(w io.Writer) *Writer {
	return newWriter(w, "ndjson", "", maxNDJSONLine, appendNDJSON)
}

func appendNDJSON(buf []byte, r LogicalRecord, _ time.Duration) []byte {
	buf = append(buf, `{"t_ns":`...)
	buf = strconv.AppendInt(buf, int64(r.Time), 10)
	buf = append(buf, `,"item":`...)
	buf = strconv.AppendInt(buf, int64(r.Item), 10)
	buf = append(buf, `,"off":`...)
	buf = strconv.AppendInt(buf, r.Offset, 10)
	buf = append(buf, `,"size":`...)
	buf = strconv.AppendInt(buf, int64(r.Size), 10)
	buf = append(buf, `,"op":"`...)
	buf = append(buf, r.Op.String()...)
	return append(buf, "\"}\n"...)
}

// NewNDJSONReader returns a TextReader of newline-delimited JSON
// records.
func NewNDJSONReader(r io.Reader) *TextReader {
	return newTextReader(r, "ndjson", nil, trimJSONSpace, parseNDJSON)
}

// parseNDJSON decodes one line. Anything the allocation-free fast path
// does not recognize (escapes, floats, unknown keys, reordered
// whitespace) goes through the full JSON decoder, so the accepted
// language is encoding/json's. The decoder works on its own variable so
// rec's address is never taken and the fast path stays allocation-free.
func parseNDJSON(b []byte, line int64) (LogicalRecord, error) {
	rec, ok := parseNDJSONLine(b)
	if !ok {
		var slow ndjsonRecord
		if err := json.Unmarshal(b, &slow); err != nil {
			return LogicalRecord{}, fmt.Errorf("trace: ndjson line %d: %w", line, err)
		}
		rec = slow
	}
	out, err := rec.toLogical()
	if err != nil {
		return LogicalRecord{}, fmt.Errorf("trace: ndjson line %d: %w", line, err)
	}
	return out, nil
}

func (rec ndjsonRecord) toLogical() (LogicalRecord, error) {
	if rec.TimeNS < 0 {
		return LogicalRecord{}, fmt.Errorf("negative time %d", rec.TimeNS)
	}
	if rec.Size <= 0 {
		return LogicalRecord{}, fmt.Errorf("non-positive size %d", rec.Size)
	}
	if rec.Item < 0 || rec.Item > int64(maxItemID) {
		return LogicalRecord{}, fmt.Errorf("item %d out of range", rec.Item)
	}
	var op Op
	switch rec.Op {
	case "R":
		op = OpRead
	case "W":
		op = OpWrite
	default:
		return LogicalRecord{}, fmt.Errorf("invalid op %q", rec.Op)
	}
	return LogicalRecord{
		Time:   time.Duration(rec.TimeNS),
		Item:   ItemID(rec.Item),
		Offset: rec.Offset,
		Size:   rec.Size,
		Op:     op,
	}, nil
}

// maxItemID is the largest ItemID (int32) value.
const maxItemID = int32(1<<31 - 1)

// parseNDJSONLine decodes the flat integer-and-"R"/"W" object language
// that NewNDJSONWriter emits, without allocating. It tolerates any key
// order and ASCII space/tab padding but nothing fancier — escapes,
// floats, exponents, nested values, or unknown keys return ok=false and
// the caller falls back to encoding/json. A malformed line also returns
// ok=false so the fallback produces the canonical error message.
func parseNDJSONLine(b []byte) (rec ndjsonRecord, ok bool) {
	i := 0
	skip := func() {
		for i < len(b) && (b[i] == ' ' || b[i] == '\t') {
			i++
		}
	}
	skip()
	if i >= len(b) || b[i] != '{' {
		return rec, false
	}
	i++
	// seen guards against duplicate keys, which encoding/json resolves
	// last-wins; rather than replicate that, bail to the fallback.
	var seen [5]bool
	for field := 0; ; field++ {
		skip()
		if i < len(b) && b[i] == '}' && field == 0 {
			i++
			break
		}
		if field > 0 {
			if i >= len(b) || b[i] != ',' {
				if i < len(b) && b[i] == '}' {
					i++
					break
				}
				return rec, false
			}
			i++
			skip()
		}
		// Key.
		if i >= len(b) || b[i] != '"' {
			return rec, false
		}
		i++
		keyStart := i
		for i < len(b) && b[i] != '"' {
			if b[i] == '\\' {
				return rec, false
			}
			i++
		}
		if i >= len(b) {
			return rec, false
		}
		key := b[keyStart:i]
		i++
		skip()
		if i >= len(b) || b[i] != ':' {
			return rec, false
		}
		i++
		skip()
		var idx int
		switch string(key) {
		case "t_ns":
			idx = 0
		case "item":
			idx = 1
		case "off":
			idx = 2
		case "size":
			idx = 3
		case "op":
			idx = 4
		default:
			return rec, false
		}
		if seen[idx] {
			return rec, false
		}
		seen[idx] = true
		if idx == 4 {
			// String value: exactly "R" or "W".
			if i+2 >= len(b) || b[i] != '"' || b[i+2] != '"' {
				return rec, false
			}
			switch b[i+1] {
			case 'R':
				rec.Op = "R"
			case 'W':
				rec.Op = "W"
			default:
				return rec, false
			}
			i += 3
			continue
		}
		// Integer value.
		numStart := i
		if i < len(b) && b[i] == '-' {
			i++
		}
		digStart := i
		for i < len(b) && b[i] >= '0' && b[i] <= '9' {
			i++
		}
		if i < len(b) && (b[i] == '.' || b[i] == 'e' || b[i] == 'E') {
			return rec, false
		}
		if i-digStart > 1 && b[digStart] == '0' {
			// JSON forbids leading zeros; let the fallback reject them.
			return rec, false
		}
		max := int64(math.MaxInt64)
		if idx == 3 {
			max = int64(math.MaxInt32)
		}
		v, err := parseIntBytes(b[numStart:i], max)
		if err != nil {
			return rec, false
		}
		switch idx {
		case 0:
			rec.TimeNS = v
		case 1:
			rec.Item = v
		case 2:
			rec.Offset = v
		case 3:
			rec.Size = int32(v)
		}
	}
	skip()
	if i != len(b) {
		return rec, false
	}
	// encoding/json leaves absent fields at their zero value; require the
	// fields toLogical validates so the fallback handles partial objects.
	return rec, seen[0] && seen[3] && seen[4]
}

// trimJSONSpace strips the space JSON allows around a value on one
// line (space, tab, CR), so a line is blank, and decodes, exactly when
// encoding/json would say so.
func trimJSONSpace(b []byte) []byte {
	for len(b) > 0 && (b[0] == ' ' || b[0] == '\t' || b[0] == '\r') {
		b = b[1:]
	}
	for len(b) > 0 && (b[len(b)-1] == ' ' || b[len(b)-1] == '\t' || b[len(b)-1] == '\r') {
		b = b[:len(b)-1]
	}
	return b
}
