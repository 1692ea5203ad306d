package obs

import (
	"testing"
	"time"
)

// TestRateRuleAcrossCompaction pins the interaction between the
// flight recorder's resolution halving and rate() watchdog rules: a
// compacted series must keep its sample grid uniform (the surviving
// rows are every 2^k-th offer, phase-aligned with the doubled
// acceptance stride), so a constant-rate signal replayed from the
// compacted series never produces a spurious rate spike across the
// compaction boundary.
func TestRateRuleAcrossCompaction(t *testing.T) {
	const (
		interval     = 30 * time.Second
		joulesPerSec = 100.0
		offers       = 5 * flightMaxSamples // forces three compactions
	)
	f := NewFlightRecorder(interval)
	for i := 0; i < offers; i++ {
		at := time.Duration(i) * interval
		Telemetry{Flight: f}.Sample(FlightSample{T: at, TotalEnergyJ: joulesPerSec * at.Seconds()}, false)
	}
	s := f.Series()
	if s.Len() > flightMaxSamples {
		t.Fatalf("series has %d rows, bound is %d", s.Len(), flightMaxSamples)
	}
	if s.Len() < 4 {
		t.Fatalf("series has only %d rows; fixture too small to cross a boundary", s.Len())
	}
	// The surviving grid must be uniform: any kink here is exactly the
	// spurious rate() spike the watchdog would alert on.
	step := s.TimesNS[1] - s.TimesNS[0]
	for i := 2; i < s.Len(); i++ {
		if d := s.TimesNS[i] - s.TimesNS[i-1]; d != step {
			t.Fatalf("sample grid not uniform after compaction: step %d at row %d, first step %d", d, i, step)
		}
	}
	if int64(interval) >= step {
		t.Fatalf("no compaction happened: step %v", time.Duration(step))
	}

	rules, err := ParseRules([]string{
		"over:rate(total_energy_j)>110", // above the true rate: must never fire
		"under:rate(total_energy_j)>90", // below the true rate: must fire (the fixture is live)
	})
	if err != nil {
		t.Fatal(err)
	}
	wd := NewWatchdog(WatchdogOptions{Rules: rules})
	col := s.Column("total_energy_j")
	for i := 0; i < s.Len(); i++ {
		wd.ObserveValues(time.Duration(s.TimesNS[i]), map[string]float64{"total_energy_j": col[i]})
	}
	for _, st := range wd.States() {
		switch st.Rule {
		case "over":
			if st.Fired != 0 {
				t.Errorf("rate rule above the true rate fired %d times across the compaction boundary (value %g)", st.Fired, st.Value)
			}
		case "under":
			if st.Fired == 0 {
				t.Errorf("rate rule below the true rate never fired; the fixture exercises nothing (value %g)", st.Value)
			}
		}
	}
}
