// Package metrics aggregates the measurements the paper's evaluation
// reports: application-observed I/O response times, derived application
// performance (TPC-C transaction throughput and TPC-H query response
// times, §VII-A.5), and the cumulative I/O interval curves of Figs 17–19.
package metrics

import (
	"fmt"
	"time"

	"esm/internal/monitor"
	"esm/internal/obs"
	"esm/internal/trace"
)

// ResponseStats accumulates response times of application I/Os: the
// log-bucketed latency histogram over every I/O (the one the tracer's
// breakdown uses) plus the read count and read sum of the paper's
// derived-performance formulas.
type ResponseStats struct {
	hist    obs.Histogram
	reads   int64
	readSum time.Duration
}

// Add records one I/O of the given type.
func (r *ResponseStats) Add(op trace.Op, d time.Duration) {
	r.hist.Add(d)
	if op == trace.OpRead {
		r.reads++
		r.readSum += d
	}
}

// Count returns the number of recorded I/Os.
func (r *ResponseStats) Count() int64 { return r.hist.Count() }

// Reads returns the number of recorded read I/Os.
func (r *ResponseStats) Reads() int64 { return r.reads }

// Mean returns the mean response time over all I/Os.
func (r *ResponseStats) Mean() time.Duration { return r.hist.Mean() }

// ReadMean returns the mean response time over reads only; this is the
// "r" of the paper's derived-performance formulas.
func (r *ResponseStats) ReadMean() time.Duration {
	if r.reads == 0 {
		return 0
	}
	return r.readSum / time.Duration(r.reads)
}

// Max returns the largest observed response time.
func (r *ResponseStats) Max() time.Duration { return r.hist.Max() }

// Percentile returns an upper bound of the p-quantile (0 < p ≤ 1) from
// the logarithmic histogram.
func (r *ResponseStats) Percentile(p float64) time.Duration { return r.hist.Percentile(p) }

// String summarises the distribution.
func (r *ResponseStats) String() string {
	return fmt.Sprintf("n=%d mean=%v readMean=%v p99=%v max=%v",
		r.Count(), r.Mean(), r.ReadMean(), r.Percentile(0.99), r.Max())
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

// CumulativeAbove returns the summed length of enclosure I/O intervals of
// at least min, across all enclosures.
func CumulativeAbove(mon *monitor.StorageMonitor, min time.Duration) time.Duration {
	var total time.Duration
	for e := 0; e < mon.Enclosures(); e++ {
		total += mon.Intervals(e).CumulativeLongerThan(min)
	}
	return total
}
