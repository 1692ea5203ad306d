// Package metrics aggregates the measurements the paper's evaluation
// reports: application-observed I/O response times, derived application
// performance (TPC-C transaction throughput and TPC-H query response
// times, §VII-A.5), and the cumulative I/O interval curves of Figs 17–19.
package metrics

import (
	"fmt"
	"math"
	"time"

	"esm/internal/monitor"
	"esm/internal/trace"
)

// respBuckets is the number of logarithmic response-time histogram
// buckets: bucket 0 covers [0, respBucketBase) and bucket i ≥ 1 covers
// [respBucketBase·2^(i-1), respBucketBase·2^i).
const respBuckets = 32

// respBucketBase is the upper bound of the first histogram bucket.
const respBucketBase = 200 * time.Microsecond

// ResponseStats accumulates response times of application I/Os.
type ResponseStats struct {
	count   int64
	sum     time.Duration
	max     time.Duration
	reads   int64
	readSum time.Duration
	hist    [respBuckets]int64
}

// Add records one I/O of the given type.
func (r *ResponseStats) Add(op trace.Op, d time.Duration) {
	r.count++
	r.sum += d
	if d > r.max {
		r.max = d
	}
	if op == trace.OpRead {
		r.reads++
		r.readSum += d
	}
	b := 0
	for limit := respBucketBase; d >= limit && b < respBuckets-1; limit *= 2 {
		b++
	}
	r.hist[b]++
}

// Count returns the number of recorded I/Os.
func (r *ResponseStats) Count() int64 { return r.count }

// Reads returns the number of recorded read I/Os.
func (r *ResponseStats) Reads() int64 { return r.reads }

// Mean returns the mean response time over all I/Os.
func (r *ResponseStats) Mean() time.Duration {
	if r.count == 0 {
		return 0
	}
	return r.sum / time.Duration(r.count)
}

// ReadMean returns the mean response time over reads only; this is the
// "r" of the paper's derived-performance formulas.
func (r *ResponseStats) ReadMean() time.Duration {
	if r.reads == 0 {
		return 0
	}
	return r.readSum / time.Duration(r.reads)
}

// ReadSum returns the summed read response time (Σr).
func (r *ResponseStats) ReadSum() time.Duration { return r.readSum }

// Max returns the largest observed response time.
func (r *ResponseStats) Max() time.Duration { return r.max }

// Percentile returns an upper bound of the p-quantile (0 < p ≤ 1) from
// the logarithmic histogram.
func (r *ResponseStats) Percentile(p float64) time.Duration {
	if r.count == 0 {
		return 0
	}
	target := int64(math.Ceil(p * float64(r.count)))
	var seen int64
	limit := respBucketBase
	for b := 0; b < respBuckets; b++ {
		seen += r.hist[b]
		if seen >= target {
			if limit > r.max {
				return r.max
			}
			return limit
		}
		limit *= 2
	}
	return r.max
}

// String summarises the distribution.
func (r *ResponseStats) String() string {
	return fmt.Sprintf("n=%d mean=%v readMean=%v p99=%v max=%v",
		r.count, r.Mean(), r.ReadMean(), r.Percentile(0.99), r.max)
}

// DerivedThroughput computes the paper's derived transaction throughput
// t = t_orig × (r_orig / r): the measured transaction rate of the
// unmanaged run scaled by the read-response-time ratio. (§VII-A.5 prints
// the ratio inverted; throughput must fall as response time grows, so the
// dimensionally consistent form is used — see DESIGN.md.)
func DerivedThroughput(tOrig float64, rOrig, r time.Duration) float64 {
	if r <= 0 || rOrig <= 0 {
		return tOrig
	}
	return tOrig * float64(rOrig) / float64(r)
}

// DerivedQueryResponse computes the paper's derived query response time
// q = q_orig × (Σr / Σr_orig) over the read responses inside the query's
// execution window.
func DerivedQueryResponse(qOrig time.Duration, sumR, sumROrig time.Duration) time.Duration {
	if sumROrig <= 0 {
		return qOrig
	}
	return time.Duration(float64(qOrig) * float64(sumR) / float64(sumROrig))
}

// CurvePoint is one point of the cumulative I/O interval curve of
// Figs 17–19: the total length of enclosure-level I/O intervals at least
// MinLen long, summed over every enclosure.
type CurvePoint struct {
	MinLen     time.Duration
	Cumulative time.Duration
	Count      int64
}

// IntervalCurve computes the cumulative interval curve from the storage
// monitor's per-enclosure gap distributions.
func IntervalCurve(mon *monitor.StorageMonitor) []CurvePoint {
	pts := make([]CurvePoint, monitor.IntervalBuckets)
	min := time.Duration(0)
	next := 2 * time.Second
	for b := 0; b < monitor.IntervalBuckets; b++ {
		pts[b].MinLen = min
		min = next
		next *= 2
	}
	for e := 0; e < mon.Enclosures(); e++ {
		iv := mon.Intervals(e)
		for b := 0; b < monitor.IntervalBuckets; b++ {
			pts[b].Count += iv.Counts[b]
			pts[b].Cumulative += iv.Sums[b]
		}
	}
	// A gap in bucket b contributes to every point at or below b, so the
	// cumulative column is the suffix sum of the per-bucket totals.
	for b := monitor.IntervalBuckets - 2; b >= 0; b-- {
		pts[b].Cumulative += pts[b+1].Cumulative
	}
	return pts
}

// CumulativeAbove returns the summed length of enclosure I/O intervals of
// at least min, across all enclosures.
func CumulativeAbove(mon *monitor.StorageMonitor, min time.Duration) time.Duration {
	var total time.Duration
	for e := 0; e < mon.Enclosures(); e++ {
		total += mon.Intervals(e).CumulativeLongerThan(min)
	}
	return total
}
