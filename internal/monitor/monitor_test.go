package monitor

import (
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"esm/internal/trace"
)

const be = 52 * time.Second

func rec(t time.Duration, item trace.ItemID, op trace.Op, size int32) trace.LogicalRecord {
	return trace.LogicalRecord{Time: t, Item: item, Op: op, Size: size}
}

func TestAppMonitorUntouchedItemIsOneLongInterval(t *testing.T) {
	m := NewAppMonitor(2, be)
	m.Record(rec(time.Second, 0, trace.OpRead, 100))
	stats := m.EndPeriod(10 * time.Minute)
	s := stats[1]
	if s.Count != 0 || s.LongIntervals != 1 || s.LongIntervalSum != 10*time.Minute {
		t.Fatalf("untouched item stats %+v", s)
	}
	if s.Sequences != 0 {
		t.Fatalf("untouched item has %d sequences", s.Sequences)
	}
}

func TestAppMonitorCountsAndReadWriteSplit(t *testing.T) {
	m := NewAppMonitor(1, be)
	m.Record(rec(1*time.Second, 0, trace.OpRead, 100))
	m.Record(rec(2*time.Second, 0, trace.OpWrite, 200))
	m.Record(rec(3*time.Second, 0, trace.OpRead, 300))
	s := m.EndPeriod(30 * time.Second)[0]
	if s.Count != 3 || s.Reads != 2 || s.Writes != 1 {
		t.Fatalf("counts %+v", s)
	}
	if s.Bytes != 600 || s.ReadBytes != 400 {
		t.Fatalf("bytes %+v", s)
	}
	if s.AvgIOPS != 0.1 {
		t.Fatalf("avg IOPS %v", s.AvgIOPS)
	}
}

func TestAppMonitorLongIntervalsAndSequences(t *testing.T) {
	m := NewAppMonitor(1, be)
	// Sequence 1: two I/Os close together; then a long gap; sequence 2.
	m.Record(rec(1*time.Second, 0, trace.OpRead, 1))
	m.Record(rec(2*time.Second, 0, trace.OpRead, 1))
	m.Record(rec(2*time.Minute, 0, trace.OpRead, 1))
	s := m.EndPeriod(2*time.Minute + time.Second)[0]
	if s.LongIntervals != 1 {
		t.Fatalf("long intervals %d, want 1", s.LongIntervals)
	}
	if s.Sequences != 2 {
		t.Fatalf("sequences %d, want 2", s.Sequences)
	}
	if s.LongIntervalSum != 2*time.Minute-2*time.Second {
		t.Fatalf("long interval sum %v", s.LongIntervalSum)
	}
}

func TestAppMonitorHeadAndTailGaps(t *testing.T) {
	m := NewAppMonitor(1, be)
	// Single I/O in the middle: both the head gap and the tail gap exceed
	// the break-even time, like Fig. 1's boundary intervals.
	m.Record(rec(5*time.Minute, 0, trace.OpRead, 1))
	s := m.EndPeriod(10 * time.Minute)[0]
	if s.LongIntervals != 2 {
		t.Fatalf("boundary long intervals %d, want 2", s.LongIntervals)
	}
	if s.LongIntervalSum != 10*time.Minute {
		t.Fatalf("long interval sum %v", s.LongIntervalSum)
	}
}

func TestAppMonitorPeakIOPS(t *testing.T) {
	m := NewAppMonitor(1, be)
	for i := 0; i < 7; i++ {
		m.Record(rec(10*time.Second+time.Duration(i)*10*time.Millisecond, 0, trace.OpRead, 1))
	}
	m.Record(rec(20*time.Second, 0, trace.OpRead, 1))
	s := m.EndPeriod(time.Minute)[0]
	if s.PeakIOPS != 7 {
		t.Fatalf("peak IOPS %v, want 7", s.PeakIOPS)
	}
}

func TestAppMonitorPeriodsReset(t *testing.T) {
	m := NewAppMonitor(1, be)
	m.Record(rec(time.Second, 0, trace.OpRead, 1))
	m.EndPeriod(time.Minute)
	s := m.EndPeriod(2 * time.Minute)[0]
	if s.Count != 0 {
		t.Fatal("counts leaked across periods")
	}
	if m.periodStart != 2*time.Minute {
		t.Fatalf("period start %v", m.periodStart)
	}
}

// TestAppMonitorIntervalInvariant: for any trace, each item's Long
// Interval total never exceeds the period, and sequences are at most
// long intervals + 1.
func TestAppMonitorIntervalInvariant(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := NewAppMonitor(3, be)
		period := 30 * time.Minute
		var tm time.Duration
		for i := 0; i < 200; i++ {
			tm += time.Duration(rng.Int63n(int64(2 * time.Minute)))
			if tm >= period {
				break
			}
			m.Record(rec(tm, trace.ItemID(rng.Intn(3)), trace.Op(rng.Intn(2)), 1))
		}
		for _, s := range m.EndPeriod(period) {
			if s.LongIntervalSum > period {
				return false
			}
			if s.Count > 0 && s.Sequences > s.LongIntervals+1 {
				return false
			}
			if s.Count == 0 && s.LongIntervals != 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestStorageMonitorIntervals(t *testing.T) {
	m := NewStorageMonitor(2)
	p := func(t time.Duration, e int32, op trace.Op) trace.PhysicalRecord {
		return trace.PhysicalRecord{Time: t, Enclosure: e, Op: op}
	}
	m.RecordPhysical(p(10*time.Second, 0, trace.OpRead))
	m.RecordPhysical(p(5*time.Minute, 0, trace.OpWrite))
	m.Finish(10 * time.Minute)
	iv := m.Intervals(0)
	// Gaps: 10s (head), 4m50s, 5m (tail).
	if got := iv.CumulativeLongerThan(be); got != 4*time.Minute+50*time.Second+5*time.Minute {
		t.Fatalf("cumulative above break-even %v", got)
	}
	if iv.MaxGap != 5*time.Minute {
		t.Fatalf("max gap %v", iv.MaxGap)
	}
	if m.Enclosures() != 2 {
		t.Fatal("enclosure count")
	}
	// Enclosure 1 never saw I/O: one 10-minute gap.
	if got := m.Intervals(1).CumulativeLongerThan(be); got != 10*time.Minute {
		t.Fatalf("untouched enclosure cumulative %v", got)
	}
}

func TestIntervalBucketsMonotone(t *testing.T) {
	var iv EnclosureIntervals
	iv.add(time.Second)
	iv.add(10 * time.Second)
	iv.add(100 * time.Second)
	iv.add(1000 * time.Second)
	prev := iv.CumulativeLongerThan(0)
	for th := time.Second; th < 2*time.Hour; th *= 2 {
		cur := iv.CumulativeLongerThan(th)
		if cur > prev {
			t.Fatalf("cumulative not monotone at %v", th)
		}
		prev = cur
	}
}
