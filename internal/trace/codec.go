// Text codecs: the allocation-free CSV field parser behind CSVReader,
// and the catalog and placement files that accompany every trace.

package trace

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
	"time"
)

// parseCSVFields decodes one non-empty data line from its raw bytes
// without allocating: fields are split in place and the integers parsed
// with parseIntBytes. Error paths fall back to allocating formatting.
func parseCSVFields(b []byte, line int) (LogicalRecord, error) {
	var fields [5][]byte
	n := 0
	start := 0
	for i := 0; i <= len(b); i++ {
		if i == len(b) || b[i] == ',' {
			if n == 5 {
				return LogicalRecord{}, fmt.Errorf("trace: line %d: want 5 fields, got %d", line, countFields(b))
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
	return LogicalRecord{
		Time:   time.Duration(t),
		Item:   ItemID(item),
		Offset: off,
		Size:   int32(size),
		Op:     op,
	}, nil
}

// countFields counts comma-separated fields for the too-many-fields
// error message (matching what strings.Split would have reported).
func countFields(b []byte) int {
	n := 1
	for _, c := range b {
		if c == ',' {
			n++
		}
	}
	return n
}

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
