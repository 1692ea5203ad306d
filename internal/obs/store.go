// The bounded columnar store behind the flight recorder (and nothing
// else: thinning suits only a time series): one time column plus value
// columns, filled under a stride-doubling acceptance discipline so
// memory stays bounded while the whole run remains covered.

package obs

import "time"

// colStore holds rows in column order. It accepts every stride-th
// offered row; when full it keeps the even-indexed rows (row 0, the
// start of the run, always survives) and doubles the stride. Rows are
// dropped, never merged, so cumulative columns stay monotone and the
// surviving time grid stays uniform. The owner serializes access.
type colStore struct {
	max     int
	stride  int64
	offered int64
	times   []int64
	vals    [][]float64 // vals[c][row]
}

// newColStore bounds the store at max rows; max must be even, so a
// compaction keeps exactly half.
func newColStore(max int) colStore {
	return colStore{max: max, stride: 1}
}

// offer counts one offered row and stores it if the stride accepts it.
func (c *colStore) offer(t time.Duration, row []float64) {
	c.offered++
	if (c.offered-1)%c.stride == 0 {
		c.push(t, row)
	}
}

// final force-stores the closing row, bypassing the stride; a row at
// the same instant as the latest one replaces it.
func (c *colStore) final(t time.Duration, row []float64) {
	if n := len(c.times); n > 0 && c.times[n-1] == int64(t) {
		for i := range c.vals {
			c.vals[i][n-1] = row[i]
		}
		return
	}
	c.push(t, row)
}

// push appends one row, compacting first when the store is full. The
// first row fixes the column count.
func (c *colStore) push(t time.Duration, row []float64) {
	if c.vals == nil {
		c.vals = make([][]float64, len(row))
	}
	if len(c.times) >= c.max {
		c.compact()
	}
	c.times = append(c.times, int64(t))
	for i := range c.vals {
		c.vals[i] = append(c.vals[i], row[i])
	}
}

// compact halves the resolution and doubles the acceptance stride.
func (c *colStore) compact() {
	keep := (len(c.times) + 1) / 2
	for i := 0; i < keep; i++ {
		c.times[i] = c.times[2*i]
	}
	c.times = c.times[:keep]
	for v, col := range c.vals {
		for i := 0; i < keep; i++ {
			col[i] = col[2*i]
		}
		c.vals[v] = col[:keep]
	}
	c.stride *= 2
}

// series snapshots the store under cols; interval is the base sampling
// interval, scaled by the stride into the effective one (zero when the
// rows are not on a grid).
func (c *colStore) series(cols []string, interval time.Duration) *Series {
	s := &Series{
		Cols:       append([]string(nil), cols...),
		TimesNS:    append([]int64(nil), c.times...),
		Values:     make([][]float64, len(cols)),
		IntervalNS: int64(interval) * c.stride,
	}
	for i := range c.vals {
		s.Values[i] = append([]float64(nil), c.vals[i]...)
	}
	return s
}
