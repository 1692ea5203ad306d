package obs

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"time"
)

// naivePercentile computes the histogram's percentile contract from the
// raw samples: the upper bucket edge of the sample at rank ceil(p·n),
// clamped to the observed maximum. The histogram must agree exactly.
func naivePercentile(samples []time.Duration, p float64) time.Duration {
	if len(samples) == 0 {
		return 0
	}
	sorted := append([]time.Duration(nil), samples...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	rank := int(math.Ceil(p*float64(len(sorted)))) - 1
	if rank < 0 {
		rank = 0
	}
	d := sorted[rank]
	limit := HistBucketBase
	for b := 0; d >= limit && b < HistBuckets-1; limit *= 2 {
		b++
	}
	max := sorted[len(sorted)-1]
	if limit > max {
		return max
	}
	return limit
}

var percentiles = []float64{0.01, 0.25, 0.50, 0.90, 0.95, 0.99, 0.999, 1}

// TestHistogramPercentileVsNaive cross-checks the streaming histogram
// against a sort-based computation on randomized inputs and on exact
// bucket-boundary values.
func TestHistogramPercentileVsNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	var inputs [][]time.Duration
	for round := 0; round < 50; round++ {
		n := 1 + rng.Intn(2000)
		samples := make([]time.Duration, 0, n)
		for i := 0; i < n; i++ {
			// Log-uniform over ~9 decades, the histogram's full range.
			samples = append(samples, time.Duration(math.Exp(rng.Float64()*20))*time.Nanosecond)
		}
		inputs = append(inputs, samples)
	}
	edges := []time.Duration{
		0, 1, 199 * time.Microsecond,
		200 * time.Microsecond, // first bucket boundary
		399 * time.Microsecond,
		400 * time.Microsecond, // second boundary
		800 * time.Microsecond, 1600 * time.Microsecond,
		25 * time.Millisecond, 15 * time.Second,
	}
	for limit := HistBucketBase; limit < 30*time.Second; limit *= 2 {
		edges = append(edges, limit-1, limit, limit+1)
	}
	inputs = append(inputs, edges)
	for round, samples := range inputs {
		var h Histogram
		for _, d := range samples {
			h.Add(d)
		}
		for _, p := range percentiles {
			want := naivePercentile(samples, p)
			if got := h.Percentile(p); got != want {
				t.Fatalf("input %d n=%d p%.3f: histogram %v, naive %v", round, len(samples), p, got, want)
			}
		}
	}
}

// TestLatencyStatsRouting: cache hits land in the cache phase only;
// physical I/Os contribute queue and service always and spin-up wait
// only when they actually waited.
func TestLatencyStatsRouting(t *testing.T) {
	var l LatencyStats
	l.addIO(&IOSpan{Response: 300 * time.Microsecond, Cause: IOCacheHit})
	l.addIO(&IOSpan{
		Response: 20 * time.Millisecond, Cause: IODiskOn,
		QueueWait: 3 * time.Millisecond, Service: 17 * time.Millisecond,
	})
	l.addIO(&IOSpan{
		Response: 15020 * time.Millisecond, Cause: IOSpinUpBlocked,
		SpinUpWait: 15 * time.Second, QueueWait: 3 * time.Millisecond, Service: 17 * time.Millisecond,
	})
	if l.Total.Count() != 3 {
		t.Fatalf("total count %d", l.Total.Count())
	}
	wantCounts := map[Phase]int64{PhaseCache: 1, PhaseSpinUp: 1, PhaseQueue: 2, PhaseService: 2}
	for ph, want := range wantCounts {
		if got := l.ByPhase[ph].Count(); got != want {
			t.Errorf("phase %v count %d, want %d", ph, got, want)
		}
	}
	for c, want := range map[IOCause]int64{IOCacheHit: 1, IODiskOn: 1, IOSpinUpBlocked: 1} {
		if got := l.ByCause[c].Count(); got != want {
			t.Errorf("cause %v count %d, want %d", c, got, want)
		}
	}
	sum := l.summary()
	if sum.Total.Count != 3 || len(sum.ByCause) != int(IOCauseCount) || len(sum.ByPhase) != int(PhaseCount) {
		t.Fatalf("summary shape: %+v", sum)
	}
}
