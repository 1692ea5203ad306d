// Package monitor implements the paper's §III monitoring system: an
// Application Monitor that watches logical (application-level) I/O per
// data item, and a Storage Monitor that watches physical I/O per disk
// enclosure. The paper's power-status records live in the decision log
// (power_on/power_off events) and the power meter, where they are read.
//
// Both monitors accumulate incrementally — the power management function
// only ever needs per-period aggregates (Long Interval counts, I/O
// Sequence read/write mixes, IOPS) — so a six-hour trace never has to be
// buffered in memory.
package monitor

import (
	"time"

	"esm/internal/trace"
)

// ItemPeriodStats is the per-data-item aggregate over one monitoring
// period, in the paper's vocabulary: Long Intervals are I/O gaps longer
// than the break-even time (including the gaps at the period boundaries),
// and I/O Sequences are the maximal runs of I/Os between them.
type ItemPeriodStats struct {
	Item trace.ItemID
	// Count, Reads, Writes count the I/Os of the period. All of them lie
	// in I/O Sequences by construction.
	Count  int64
	Reads  int64
	Writes int64
	// Bytes is the total I/O volume; ReadBytes the read part.
	Bytes     int64
	ReadBytes int64
	// LongIntervals is the number of Long Intervals observed.
	LongIntervals int
	// LongIntervalSum is their total length (feeds the next-period
	// calculation, §IV-H).
	LongIntervalSum time.Duration
	// Sequences is the number of I/O Sequences.
	Sequences int
	// AvgIOPS is Count divided by the period length.
	AvgIOPS float64
	// PeakIOPS is the highest I/O count observed in any one-second window.
	PeakIOPS float64
}

// itemAccum is the running per-item state within the current period.
type itemAccum struct {
	count, reads, writes int64
	bytes, readBytes     int64
	last                 time.Duration
	longIntervals        int
	longIntervalSum      time.Duration
	sequences            int
	curSecond            int64
	curSecondCount       int64
	peakPerSecond        int64
}

// AppMonitor is the application monitor. Record is called for every
// logical I/O; EndPeriod closes the monitoring period and returns the
// per-item aggregates.
type AppMonitor struct {
	breakEven   time.Duration
	periodStart time.Duration
	items       []itemAccum
	touched     []trace.ItemID
}

// NewAppMonitor returns a monitor over a catalog of n items using the
// given break-even time, with the first period starting at time zero.
func NewAppMonitor(n int, breakEven time.Duration) *AppMonitor {
	return &AppMonitor{
		breakEven: breakEven,
		items:     make([]itemAccum, n),
	}
}

// Record ingests one logical I/O.
func (m *AppMonitor) Record(rec trace.LogicalRecord) {
	a := &m.items[rec.Item]
	if a.count == 0 {
		m.touched = append(m.touched, rec.Item)
		if gap := rec.Time - m.periodStart; gap > m.breakEven {
			a.longIntervals++
			a.longIntervalSum += gap
		}
		a.sequences = 1
	} else {
		if gap := rec.Time - a.last; gap > m.breakEven {
			a.longIntervals++
			a.longIntervalSum += gap
			a.sequences++
		}
	}
	a.count++
	a.bytes += int64(rec.Size)
	if rec.Op == trace.OpRead {
		a.reads++
		a.readBytes += int64(rec.Size)
	} else {
		a.writes++
	}
	a.last = rec.Time
	sec := int64(rec.Time / time.Second)
	if sec != a.curSecond {
		a.curSecond = sec
		a.curSecondCount = 0
	}
	a.curSecondCount++
	if a.curSecondCount > a.peakPerSecond {
		a.peakPerSecond = a.curSecondCount
	}
}

// EndPeriod closes the period at time now and returns one entry per
// catalog item — including untouched items, whose whole period is a
// single Long Interval (pattern P0 upstream). The monitor then starts a
// fresh period at now.
func (m *AppMonitor) EndPeriod(now time.Duration) []ItemPeriodStats {
	period := now - m.periodStart
	out := make([]ItemPeriodStats, len(m.items))
	for i := range m.items {
		a := &m.items[i]
		s := &out[i]
		s.Item = trace.ItemID(i)
		s.Count = a.count
		s.Reads = a.reads
		s.Writes = a.writes
		s.Bytes = a.bytes
		s.ReadBytes = a.readBytes
		s.LongIntervals = a.longIntervals
		s.LongIntervalSum = a.longIntervalSum
		s.Sequences = a.sequences
		s.PeakIOPS = float64(a.peakPerSecond)
		if a.count == 0 {
			// No I/O at all: one Long Interval spanning the period.
			if period > m.breakEven {
				s.LongIntervals = 1
				s.LongIntervalSum = period
			}
		} else if tail := now - a.last; tail > m.breakEven {
			s.LongIntervals++
			s.LongIntervalSum += tail
		}
		if period > 0 {
			s.AvgIOPS = float64(a.count) / period.Seconds()
		}
		*a = itemAccum{}
	}
	m.touched = m.touched[:0]
	m.periodStart = now
	return out
}

// IntervalBuckets is the number of logarithmic gap buckets kept per
// enclosure. Bucket i covers gaps in [2^i, 2^(i+1)) seconds, with bucket 0
// holding everything below 2 seconds.
const IntervalBuckets = 20

// EnclosureIntervals aggregates the physical I/O gap distribution of one
// enclosure; it feeds the Figs 17–19 analysis.
type EnclosureIntervals struct {
	// Counts[i] and Sums[i] are the number and total length of gaps in
	// logarithmic bucket i.
	Counts [IntervalBuckets]int64
	Sums   [IntervalBuckets]time.Duration
	// MaxGap is the longest observed gap.
	MaxGap time.Duration
}

func bucketOf(gap time.Duration) int {
	sec := gap.Seconds()
	b := 0
	for limit := 2.0; sec >= limit && b < IntervalBuckets-1; limit *= 2 {
		b++
	}
	return b
}

func (ei *EnclosureIntervals) add(gap time.Duration) {
	b := bucketOf(gap)
	ei.Counts[b]++
	ei.Sums[b] += gap
	if gap > ei.MaxGap {
		ei.MaxGap = gap
	}
}

// CumulativeLongerThan returns the total length of gaps at least min long.
// Bucket granularity makes this approximate below one bucket width, which
// is sufficient for the cumulative interval curves of Figs 17–19.
func (ei *EnclosureIntervals) CumulativeLongerThan(min time.Duration) time.Duration {
	var total time.Duration
	from := bucketOf(min)
	for b := from; b < IntervalBuckets; b++ {
		total += ei.Sums[b]
	}
	return total
}

// StorageMonitor is the storage monitor: it observes physical I/O per
// enclosure and keeps the gap distributions of Figs 17–19, measured
// from time zero.
type StorageMonitor struct {
	lastIO    []time.Duration
	hasIO     []bool
	intervals []EnclosureIntervals
}

// NewStorageMonitor returns a monitor over n enclosures.
func NewStorageMonitor(n int) *StorageMonitor {
	return &StorageMonitor{
		lastIO:    make([]time.Duration, n),
		hasIO:     make([]bool, n),
		intervals: make([]EnclosureIntervals, n),
	}
}

// RecordPhysical ingests one physical I/O.
func (m *StorageMonitor) RecordPhysical(rec trace.PhysicalRecord) {
	e := int(rec.Enclosure)
	if m.hasIO[e] {
		if gap := rec.Time - m.lastIO[e]; gap > 0 {
			m.intervals[e].add(gap)
		}
	} else {
		m.hasIO[e] = true
		if rec.Time > 0 {
			m.intervals[e].add(rec.Time)
		}
	}
	m.lastIO[e] = rec.Time
}

// Finish accounts the tail gap of every enclosure up to now.
func (m *StorageMonitor) Finish(now time.Duration) {
	for e := range m.lastIO {
		var last time.Duration
		if m.hasIO[e] {
			last = m.lastIO[e]
		}
		if gap := now - last; gap > 0 {
			m.intervals[e].add(gap)
		}
	}
}

// Intervals returns the gap distribution of enclosure e.
func (m *StorageMonitor) Intervals(e int) *EnclosureIntervals { return &m.intervals[e] }

// Enclosures returns the enclosure count.
func (m *StorageMonitor) Enclosures() int { return len(m.intervals) }
