package replay

import (
	"math"
	"testing"
	"time"

	"esm/internal/core"
	"esm/internal/obs"
	"esm/internal/storage"
	"esm/internal/trace"
)

// esmRun builds the TestExecuteWithESM workload: one busy item, one
// bursty item, 30 simulated minutes — enough traffic for
// determinations, spin-downs and cache activity.
func esmRun(t *testing.T) Run {
	t.Helper()
	cat := trace.NewCatalog()
	busy := cat.Add("busy", 1<<30)
	burst := cat.Add("burst", 32<<20)
	var recs []trace.LogicalRecord
	dur := 30 * time.Minute
	for tm := time.Duration(0); tm < dur; tm += 2 * time.Second {
		recs = append(recs, trace.LogicalRecord{Time: tm, Item: busy, Offset: int64(tm), Size: 8 << 10, Op: trace.OpRead})
	}
	for start := time.Duration(0); start < dur; start += 5 * time.Minute {
		for j := 0; j < 5; j++ {
			recs = append(recs, trace.LogicalRecord{Time: start + time.Duration(j)*300*time.Millisecond, Item: burst, Size: 8 << 10, Op: trace.OpWrite})
		}
	}
	trace.SortLogical(recs)
	esm, err := core.NewESM(core.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	return Run{
		Catalog:   cat,
		Source:    trace.NewSliceSource(recs),
		Placement: []int{0, 1},
		Storage:   storage.DefaultConfig(2),
		Policy:    esm,
		Duration:  dur,
	}
}

// TestFlightFinalSampleMatchesResult is the series/total consistency
// gate: the forced closing sample of the flight recorder must agree
// with the Result exactly — same settled meter, same counters.
func TestFlightFinalSampleMatchesResult(t *testing.T) {
	run := esmRun(t)
	run.Telemetry.Flight = obs.NewFlightRecorder(0)
	res, err := Execute(run)
	if err != nil {
		t.Fatal(err)
	}
	s := res.Series
	if s.Len() < 2 {
		t.Fatalf("series has %d samples", s.Len())
	}
	last := s.Len() - 1
	if got := time.Duration(s.TimesNS[last]); got != res.Span {
		t.Fatalf("final sample at %v, span %v", got, res.Span)
	}
	exact := func(col string, want float64) {
		t.Helper()
		vals := s.Column(col)
		if vals == nil {
			t.Fatalf("column %s missing", col)
		}
		if vals[last] != want {
			t.Fatalf("final %s = %v, Result says %v", col, vals[last], want)
		}
	}
	exact("total_energy_j", res.EnergyJ)
	exact("spin_ups", float64(res.SpinUps))
	exact("determinations", float64(res.Determinations))
	exact("migrations", float64(res.Storage.Migrations))
	exact("migrated_b", float64(res.Storage.MigratedBytes))
	exact("physical_reads", float64(res.Storage.PhysicalReads))
	exact("physical_writes", float64(res.Storage.PhysicalWrites))
	exact("cache_hits", float64(res.Storage.CacheHits))
	exact("resp_count", float64(res.Resp.Count()))
	exact("resp_mean_us", float64(res.Resp.Mean())/float64(time.Microsecond))
	exact("faults", 0)
	if res.Determinations > 0 {
		var sum float64
		for _, c := range []string{"class_p0", "class_p1", "class_p2", "class_p3"} {
			sum += s.Column(c)[last]
		}
		if sum != float64(run.Catalog.Len()) {
			t.Fatalf("final class counts sum to %v, catalog has %d items", sum, run.Catalog.Len())
		}
	}
	// Cumulative columns are monotone over the whole series.
	for _, col := range []string{"enclosure_energy_j", "total_energy_j", "spin_ups", "migrated_b", "cache_hits", "resp_count"} {
		vals := s.Column(col)
		for i := 1; i < len(vals); i++ {
			if vals[i] < vals[i-1] {
				t.Fatalf("column %s not monotone at sample %d", col, i)
			}
		}
	}
	// The per-enclosure layout is present and states are in range.
	for _, col := range []string{"enc0_state", "enc1_state"} {
		for i, v := range s.Column(col) {
			if v != obs.EnclosureOff && v != obs.EnclosureIdle && v != obs.EnclosureActive {
				t.Fatalf("%s[%d] = %v", col, i, v)
			}
		}
	}
}

// TestPowerSeriesMatchesOldBucketing pins the satellite-2 refactor: the
// PowerSeries derived from the unified flight-sampling grid must equal
// the old ad-hoc implementation, which was exactly
//
//	series[i] = (E(t_{i+1}) - E(t_i)) / bucketSeconds
//
// over the grid t_i = i*bucket with E the meter's cumulative enclosure
// energy. The flight series records E at every grid point (plus t=0),
// so recomputing the old formula from its cumulative column must
// reproduce Result.PowerSeries bit for bit.
func TestPowerSeriesMatchesOldBucketing(t *testing.T) {
	run := esmRun(t)
	// A span that is not a multiple of span/120: the last grid sample
	// then lands strictly before the end, so the forced closing sample
	// (which settles the end-of-run flush into the meter) does not
	// overwrite any grid row and every bucket can be pinned.
	run.Duration += 7 * time.Second
	run.Telemetry.Flight = obs.NewFlightRecorder(0)
	res, err := Execute(run)
	if err != nil {
		t.Fatal(err)
	}
	if want := res.Span / 120; res.PowerBucket != want {
		t.Fatalf("bucket %v, want span/120 = %v", res.PowerBucket, want)
	}
	if res.Span%res.PowerBucket == 0 {
		t.Fatal("fixture span divides the bucket; the pin would skip the last bucket")
	}
	energy := res.Series.Column("enclosure_energy_j")
	if len(energy) < len(res.PowerSeries)+1 {
		t.Fatalf("series has %d samples for %d power buckets", len(energy), len(res.PowerSeries))
	}
	if energy[0] != 0 {
		t.Fatalf("t=0 sample has energy %v", energy[0])
	}
	for i, got := range res.PowerSeries {
		want := (energy[i+1] - energy[i]) / res.PowerBucket.Seconds()
		if got != want {
			t.Fatalf("PowerSeries[%d] = %v, old bucketing says %v", i, got, want)
		}
	}
}

// TestPowerSeriesUnperturbedByFlightRecorder: attaching the sampler
// must not change the measurement (replays are deterministic).
func TestPowerSeriesUnperturbedByFlightRecorder(t *testing.T) {
	plain, err := Execute(esmRun(t))
	if err != nil {
		t.Fatal(err)
	}
	run := esmRun(t)
	run.Telemetry.Flight = obs.NewFlightRecorder(0)
	sampled, err := Execute(run)
	if err != nil {
		t.Fatal(err)
	}
	if plain.EnergyJ != sampled.EnergyJ || plain.SpinUps != sampled.SpinUps {
		t.Fatalf("flight recorder perturbed the run: E %v vs %v, spin-ups %d vs %d",
			plain.EnergyJ, sampled.EnergyJ, plain.SpinUps, sampled.SpinUps)
	}
	if len(plain.PowerSeries) != len(sampled.PowerSeries) {
		t.Fatalf("series length %d vs %d", len(plain.PowerSeries), len(sampled.PowerSeries))
	}
	for i := range plain.PowerSeries {
		if plain.PowerSeries[i] != sampled.PowerSeries[i] {
			t.Fatalf("PowerSeries[%d]: %v vs %v", i, plain.PowerSeries[i], sampled.PowerSeries[i])
		}
	}
	if plain.Series != nil || sampled.Series == nil {
		t.Fatal("Result.Series wiring wrong")
	}
}

// TestFlightIntervalOverridesPowerBucket: a recorder with an explicit
// interval sets the sampling grid for both the flight series and the
// derived PowerSeries.
func TestFlightIntervalOverridesPowerBucket(t *testing.T) {
	run := esmRun(t)
	run.Telemetry.Flight = obs.NewFlightRecorder(time.Minute)
	res, err := Execute(run)
	if err != nil {
		t.Fatal(err)
	}
	if res.PowerBucket != time.Minute {
		t.Fatalf("bucket %v, want the recorder's 1m interval", res.PowerBucket)
	}
	if want := int(res.Span / time.Minute); len(res.PowerSeries) != want {
		t.Fatalf("%d power samples, want %d", len(res.PowerSeries), want)
	}
	// The series average tracks the meter's average enclosure power
	// (not exactly: the end-of-run flush energy lands after the last
	// bucket closes, as it always did).
	var sum float64
	for _, v := range res.PowerSeries {
		sum += v
	}
	avg := sum / float64(len(res.PowerSeries))
	if math.Abs(avg-res.AvgEnclosureW) > 0.05*res.AvgEnclosureW {
		t.Fatalf("series average %.2f W vs meter average %.2f W", avg, res.AvgEnclosureW)
	}
}
