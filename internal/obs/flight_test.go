package obs

import (
	"bytes"
	"math"
	"strings"
	"testing"
	"time"
)

// sampleAt builds a deterministic sample whose cumulative columns grow
// linearly with i, so downsampling invariants are easy to check.
func sampleAt(i int, encs int) FlightSample {
	s := FlightSample{
		T:                time.Duration(i) * time.Second,
		EnclosureEnergyJ: float64(i) * 10,
		TotalEnergyJ:     float64(i) * 12,
		SpinUps:          i / 7,
		CacheDirtyBytes:  int64(i%5) * 1024,
		Determinations:   int64(i / 10),
		Migrations:       int64(i / 3),
		MigratedBytes:    int64(i) * 1 << 20,
		PhysicalReads:    int64(i) * 4,
		PhysicalWrites:   int64(i) * 2,
		CacheHits:        int64(i),
		RespCount:        int64(i) * 8,
		RespMean:         time.Duration(i) * time.Millisecond,
		Faults:           int64(i / 20),
		Degraded:         i%13 == 0 && i > 0,
	}
	for e := 0; e < encs; e++ {
		s.Enclosures = append(s.Enclosures, EnclosureSample{
			State:     uint8((i + e) % 3),
			UsedBytes: int64(e+1) * 1 << 30,
			IdleFor:   time.Duration(e) * time.Second,
		})
	}
	return s
}

func TestFlightNilSafe(t *testing.T) {
	var f *FlightRecorder
	if f.Interval() != 0 {
		t.Fatal("nil recorder has an interval")
	}
	Telemetry{Flight: f}.Sample(sampleAt(1, 2), false)
	Telemetry{Flight: f}.Sample(sampleAt(2, 2), true)
	if s := f.Series(); s != nil {
		t.Fatalf("nil recorder produced a series: %v", s)
	}
	if n := f.Series().Len(); n != 0 {
		t.Fatalf("nil series Len = %d", n)
	}
}

func TestFlightDownsamplingPreservesEnds(t *testing.T) {
	const max = flightMaxSamples
	f := NewFlightRecorder(time.Second)
	const offers = 12 * max
	for i := 0; i < offers; i++ {
		Telemetry{Flight: f}.Sample(sampleAt(i, 1), false)
	}
	Telemetry{Flight: f}.Sample(sampleAt(offers, 1), true)
	s := f.Series()
	if s.Len() < 2 || s.Len() > max+1 {
		t.Fatalf("series has %d samples, want 2..%d", s.Len(), max+1)
	}
	if s.TimesNS[0] != 0 {
		t.Fatalf("first sample at %d ns, want 0 (first sample must survive compaction)", s.TimesNS[0])
	}
	if last := s.TimesNS[s.Len()-1]; last != int64(offers)*int64(time.Second) {
		t.Fatalf("last sample at %d ns, want %d (Final must always land)", last, int64(offers)*int64(time.Second))
	}
	// The effective interval grew with every compaction.
	if s.IntervalNS <= int64(time.Second) {
		t.Fatalf("effective interval %d ns did not grow past the base interval", s.IntervalNS)
	}
	// Cumulative columns stay monotone non-decreasing: compaction drops
	// rows, never merges them.
	for _, col := range []string{"enclosure_energy_j", "total_energy_j", "spin_ups", "migrated_b", "cache_hits", "faults", "determinations"} {
		vals := s.Column(col)
		if vals == nil {
			t.Fatalf("column %s missing", col)
		}
		for i := 1; i < len(vals); i++ {
			if vals[i] < vals[i-1] {
				t.Fatalf("column %s not monotone at %d: %v < %v", col, i, vals[i], vals[i-1])
			}
		}
	}
	// Every surviving row holds the exact values offered at its time:
	// energy grew 10 J/s in the fixture.
	energy := s.Column("enclosure_energy_j")
	for i, ns := range s.TimesNS {
		want := float64(ns/int64(time.Second)) * 10
		if energy[i] != want {
			t.Fatalf("row %d (t=%dns): energy %v, want %v", i, ns, energy[i], want)
		}
	}
}

func TestFlightFinalReplacesSameInstant(t *testing.T) {
	f := NewFlightRecorder(time.Second)
	Telemetry{Flight: f}.Sample(sampleAt(0, 1), false)
	Telemetry{Flight: f}.Sample(sampleAt(1, 1), false)
	fin := sampleAt(1, 1)
	fin.EnclosureEnergyJ = 999
	Telemetry{Flight: f}.Sample(fin, true)
	s := f.Series()
	if s.Len() != 2 {
		t.Fatalf("series has %d samples, want 2 (same-instant Final replaces)", s.Len())
	}
	if e := s.Column("enclosure_energy_j")[1]; e != 999 {
		t.Fatalf("final row energy %v, want 999", e)
	}
}

func TestFlightClassCountsStamped(t *testing.T) {
	f := NewFlightRecorder(0)
	Telemetry{Flight: f}.Sample(sampleAt(0, 1), false)
	s1 := sampleAt(1, 1)
	s1.ClassCounts = [4]int{7, 5, 3, 1}
	Telemetry{Flight: f}.Sample(s1, false)
	s := f.Series()
	for i, want := range []float64{7, 5, 3, 1} {
		col := s.Column("class_p" + string(rune('0'+i)))
		if col[0] != 0 || col[1] != want {
			t.Fatalf("class_p%d = %v, want [0 %v]", i, col, want)
		}
	}
}

func TestSeriesCSVRoundTrip(t *testing.T) {
	f := NewFlightRecorder(2 * time.Second)
	for i := 0; i < 5; i++ {
		Telemetry{Flight: f}.Sample(sampleAt(2*i, 3), false)
	}
	s := f.Series()
	var buf bytes.Buffer
	if err := s.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadSeriesCSV(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != s.Len() || len(got.Cols) != len(s.Cols) {
		t.Fatalf("round trip: %dx%d, want %dx%d", got.Len(), len(got.Cols), s.Len(), len(s.Cols))
	}
	for c := range s.Cols {
		if got.Cols[c] != s.Cols[c] {
			t.Fatalf("col %d: %q != %q", c, got.Cols[c], s.Cols[c])
		}
		for i := range s.TimesNS {
			if got.Values[c][i] != s.Values[c][i] {
				t.Fatalf("col %s row %d: %v != %v", s.Cols[c], i, got.Values[c][i], s.Values[c][i])
			}
		}
	}
	// The per-enclosure layout made it through.
	if got.Column("enc2_used_b") == nil {
		t.Fatal("per-enclosure column missing after round trip")
	}
}

func TestSeriesJSONHasColumns(t *testing.T) {
	f := NewFlightRecorder(time.Second)
	Telemetry{Flight: f}.Sample(sampleAt(0, 1), false)
	Telemetry{Flight: f}.Sample(sampleAt(1, 1), false)
	var buf bytes.Buffer
	if err := f.Series().WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"cols"`, `"times_ns"`, `"values"`, `"interval_ns"`, "enclosure_energy_j"} {
		if !strings.Contains(buf.String(), want) {
			t.Fatalf("JSON export lacks %s:\n%s", want, buf.String())
		}
	}
}

func TestSeriesWindow(t *testing.T) {
	f := NewFlightRecorder(time.Second)
	for i := 0; i <= 10; i++ {
		Telemetry{Flight: f}.Sample(sampleAt(i, 1), false)
	}
	s := f.Series()
	w := s.Window(3*time.Second, 7*time.Second)
	if w.Len() != 5 {
		t.Fatalf("window has %d samples, want 5", w.Len())
	}
	if w.TimesNS[0] != int64(3*time.Second) || w.TimesNS[4] != int64(7*time.Second) {
		t.Fatalf("window spans [%d, %d]", w.TimesNS[0], w.TimesNS[4])
	}
	if w := s.Window(0, 0); w.Len() != s.Len() {
		t.Fatalf("unbounded window dropped samples: %d of %d", w.Len(), s.Len())
	}
	if got := s.Window(3*time.Second, 7*time.Second).Column("enclosure_energy_j")[0]; math.Abs(got-30) > 0 {
		t.Fatalf("windowed column misaligned: %v", got)
	}
}
