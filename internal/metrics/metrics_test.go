package metrics

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"esm/internal/monitor"
	"esm/internal/trace"
)

func TestResponseStatsBasics(t *testing.T) {
	var r ResponseStats
	r.Add(trace.OpRead, 10*time.Millisecond)
	r.Add(trace.OpRead, 20*time.Millisecond)
	r.Add(trace.OpWrite, 30*time.Millisecond)
	if r.Count() != 3 || r.Reads() != 2 {
		t.Fatalf("counts %d/%d", r.Count(), r.Reads())
	}
	if r.Mean() != 20*time.Millisecond {
		t.Fatalf("mean %v", r.Mean())
	}
	if r.ReadMean() != 15*time.Millisecond {
		t.Fatalf("read mean %v", r.ReadMean())
	}
	if r.readSum != 30*time.Millisecond {
		t.Fatalf("read sum %v", r.readSum)
	}
	if r.Max() != 30*time.Millisecond {
		t.Fatalf("max %v", r.Max())
	}
	if !strings.Contains(r.String(), "n=3") {
		t.Fatalf("string %q", r.String())
	}
}

func TestResponseStatsEmpty(t *testing.T) {
	var r ResponseStats
	if r.Mean() != 0 || r.ReadMean() != 0 || r.Percentile(0.99) != 0 {
		t.Fatal("empty stats not zero")
	}
}

// TestPercentileBounds: the histogram quantile is an upper bound of the
// true quantile and never exceeds the max.
func TestPercentileBounds(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var r ResponseStats
		var samples []time.Duration
		n := 100 + rng.Intn(400)
		for i := 0; i < n; i++ {
			d := time.Duration(rng.Int63n(int64(5 * time.Second)))
			samples = append(samples, d)
			r.Add(trace.OpRead, d)
		}
		p99 := r.Percentile(0.99)
		if p99 > r.Max() {
			return false
		}
		// At least 99% of samples are at or below the reported bound.
		var below int
		for _, s := range samples {
			if s <= p99 {
				below++
			}
		}
		return float64(below) >= 0.99*float64(n)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// TestPercentileBucketBoundaries pins the histogram's bucket layout:
// bucket 0 is [0, 200µs), bucket i ≥ 1 is [200µs·2^(i-1), 200µs·2^i),
// and Percentile reports each bucket's upper bound (capped at the max).
func TestPercentileBucketBoundaries(t *testing.T) {
	cases := []struct {
		d    time.Duration
		want time.Duration // upper bound of d's bucket
	}{
		{0, 200 * time.Microsecond},
		{199 * time.Microsecond, 200 * time.Microsecond},
		{200 * time.Microsecond, 400 * time.Microsecond}, // boundary lands in the next bucket
		{399 * time.Microsecond, 400 * time.Microsecond},
		{400 * time.Microsecond, 800 * time.Microsecond},
		{time.Millisecond, 1600 * time.Microsecond},
		{25 * time.Millisecond, 25600 * time.Microsecond},
	}
	for _, c := range cases {
		var r ResponseStats
		r.Add(trace.OpRead, c.d)
		// A second sample far above keeps the max from capping the bound.
		r.Add(trace.OpRead, time.Hour)
		if got := r.Percentile(0.5); got != c.want {
			t.Errorf("Percentile(0.5) after Add(%v) = %v, want %v", c.d, got, c.want)
		}
	}
	// With one sample the bound is capped at the observed max.
	var r ResponseStats
	r.Add(trace.OpRead, 150*time.Microsecond)
	if got := r.Percentile(0.99); got != 150*time.Microsecond {
		t.Errorf("capped percentile = %v, want 150µs", got)
	}
}

func TestDerivedThroughput(t *testing.T) {
	// Doubling the read response halves the derived throughput.
	got := DerivedThroughput(1859.5, 10*time.Millisecond, 20*time.Millisecond)
	if got < 929 || got > 930 {
		t.Fatalf("derived tpmC %v", got)
	}
	// Faster responses increase it.
	got = DerivedThroughput(1000, 20*time.Millisecond, 10*time.Millisecond)
	if got != 2000 {
		t.Fatalf("derived tpmC %v", got)
	}
	// Degenerate inputs return the baseline.
	if DerivedThroughput(5, 0, time.Millisecond) != 5 || DerivedThroughput(5, time.Millisecond, 0) != 5 {
		t.Fatal("degenerate handling")
	}
}

func TestDerivedQueryResponse(t *testing.T) {
	q := DerivedQueryResponse(10*time.Minute, 30*time.Second, 10*time.Second)
	if q != 30*time.Minute {
		t.Fatalf("derived q %v", q)
	}
	if DerivedQueryResponse(time.Minute, time.Second, 0) != time.Minute {
		t.Fatal("degenerate handling")
	}
}

func TestCumulativeAbove(t *testing.T) {
	m := monitor.NewStorageMonitor(2)
	m.RecordPhysical(trace.PhysicalRecord{Time: 0, Enclosure: 0})
	m.RecordPhysical(trace.PhysicalRecord{Time: 10 * time.Minute, Enclosure: 0})
	m.RecordPhysical(trace.PhysicalRecord{Time: 0, Enclosure: 1})
	m.Finish(10 * time.Minute)
	// Total gap length: enclosure 0 has one 10-minute gap, enclosure 1 a
	// 10-minute tail gap.
	if got := CumulativeAbove(m, 52*time.Second); got != 20*time.Minute {
		t.Fatalf("cumulative above break-even %v", got)
	}
	if got := CumulativeAbove(m, time.Hour); got != 0 {
		t.Fatalf("cumulative above 1h = %v", got)
	}
}
