// Streaming log-bucketed latency histograms: the per-phase and
// per-cause response-time breakdown built on top of the tracer's I/O
// spans. Bucket 0 covers [0, 200µs) and bucket i ≥ 1 covers
// [200µs·2^(i-1), 200µs·2^i). metrics.ResponseStats keeps one too, so
// percentiles computed here agree with the replay aggregates on the
// same samples.

package obs

import (
	"math"
	"time"
)

// HistBuckets is the number of logarithmic histogram buckets.
const HistBuckets = 32

// HistBucketBase is the upper bound of the first bucket.
const HistBucketBase = 200 * time.Microsecond

// Histogram is a streaming log-bucketed duration histogram. Percentile
// returns the bucket upper bound (clamped to the observed maximum), so
// cross-checks against a sorted-sample computation are exact at bucket
// granularity.
type Histogram struct {
	count   int64
	sum     time.Duration
	max     time.Duration
	buckets [HistBuckets]int64
}

// Add records one duration.
func (h *Histogram) Add(d time.Duration) {
	h.count++
	h.sum += d
	if d > h.max {
		h.max = d
	}
	b := 0
	for limit := HistBucketBase; d >= limit && b < HistBuckets-1; limit *= 2 {
		b++
	}
	h.buckets[b]++
}

// Count returns the number of recorded durations.
func (h *Histogram) Count() int64 { return h.count }

// Max returns the largest recorded duration.
func (h *Histogram) Max() time.Duration { return h.max }

// Mean returns the mean duration, or 0 when empty.
func (h *Histogram) Mean() time.Duration {
	if h.count == 0 {
		return 0
	}
	return h.sum / time.Duration(h.count)
}

// Percentile returns an upper bound of the p-quantile (0 < p ≤ 1): the
// upper edge of the bucket holding the p-th sample, clamped to the
// observed maximum.
func (h *Histogram) Percentile(p float64) time.Duration {
	if h.count == 0 {
		return 0
	}
	target := int64(math.Ceil(p * float64(h.count)))
	var seen int64
	limit := HistBucketBase
	for b := 0; b < HistBuckets; b++ {
		seen += h.buckets[b]
		if seen >= target {
			if limit > h.max {
				return h.max
			}
			return limit
		}
		limit *= 2
	}
	return h.max
}

// Phase names one stage of an application I/O's life inside the
// storage unit.
type Phase uint8

// The I/O phases, in lifecycle order: an I/O arrives, the cache lookup
// either resolves it (cache phase) or it proceeds to its enclosure,
// where it may wait for a spin-up, then for a free server (queue), and
// finally receives physical service.
const (
	PhaseCache Phase = iota
	PhaseSpinUp
	PhaseQueue
	PhaseService
	PhaseCount
)

// String returns the phase name.
func (p Phase) String() string {
	switch p {
	case PhaseCache:
		return "cache"
	case PhaseSpinUp:
		return "spinup-wait"
	case PhaseQueue:
		return "queue"
	case PhaseService:
		return "service"
	default:
		return "unknown"
	}
}

// IOCause classifies how an application I/O was served: entirely from
// cache, by a spun-up enclosure, or delayed behind an on-demand
// spin-up. This is the axis the paper's energy/response trade-off turns
// on — spin-up-blocked I/Os are the ones paying for the energy saving.
type IOCause uint8

// The serve causes.
const (
	IOCacheHit IOCause = iota
	IODiskOn
	IOSpinUpBlocked
	IOCauseCount
)

// String returns the cause name.
func (c IOCause) String() string {
	switch c {
	case IOCacheHit:
		return "cache-hit"
	case IODiskOn:
		return "disk-on"
	case IOSpinUpBlocked:
		return "spin-up-blocked"
	default:
		return "unknown"
	}
}

// LatencyStats is the streaming latency breakdown: total response
// times, response times split by serve cause, and per-phase durations.
// The spin-up histogram covers only I/Os that actually waited for a
// spin-up; the queue and service histograms cover every physical I/O;
// the cache histogram covers every cache-resolved I/O.
type LatencyStats struct {
	Total   Histogram
	ByCause [IOCauseCount]Histogram
	ByPhase [PhaseCount]Histogram
}

// addIO folds one completed I/O span into the breakdown.
func (l *LatencyStats) addIO(sp *IOSpan) {
	l.Total.Add(sp.Response)
	l.ByCause[sp.Cause].Add(sp.Response)
	if sp.Cause == IOCacheHit {
		l.ByPhase[PhaseCache].Add(sp.Response)
		return
	}
	if sp.SpinUpWait > 0 {
		l.ByPhase[PhaseSpinUp].Add(sp.SpinUpWait)
	}
	l.ByPhase[PhaseQueue].Add(sp.QueueWait)
	l.ByPhase[PhaseService].Add(sp.Service)
}

// LatencyRow is one row of a latency summary: the distribution of one
// phase or one cause.
type LatencyRow struct {
	Name  string        `json:"name"`
	Count int64         `json:"count"`
	Mean  time.Duration `json:"mean_ns"`
	P50   time.Duration `json:"p50_ns"`
	P95   time.Duration `json:"p95_ns"`
	P99   time.Duration `json:"p99_ns"`
	Max   time.Duration `json:"max_ns"`
}

func summaryRow(name string, h *Histogram) LatencyRow {
	return LatencyRow{
		Name:  name,
		Count: h.Count(),
		Mean:  h.Mean(),
		P50:   h.Percentile(0.50),
		P95:   h.Percentile(0.95),
		P99:   h.Percentile(0.99),
		Max:   h.Max(),
	}
}

// LatencySummary is a point-in-time snapshot of the latency breakdown,
// as served by esmd /status and rendered by esmstat latency.
type LatencySummary struct {
	Total   LatencyRow   `json:"total"`
	ByCause []LatencyRow `json:"by_cause"`
	ByPhase []LatencyRow `json:"by_phase"`
}

// summary snapshots the breakdown. Empty causes and phases are kept so
// consumers always see the full axis.
func (l *LatencyStats) summary() *LatencySummary {
	s := &LatencySummary{Total: summaryRow("total", &l.Total)}
	for c := IOCause(0); c < IOCauseCount; c++ {
		s.ByCause = append(s.ByCause, summaryRow(c.String(), &l.ByCause[c]))
	}
	for p := Phase(0); p < PhaseCount; p++ {
		s.ByPhase = append(s.ByPhase, summaryRow(p.String(), &l.ByPhase[p]))
	}
	return s
}
