package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"esm/internal/experiments"
	"esm/internal/obs"
)

func manifestFixture() experiments.Manifest {
	return experiments.Manifest{
		Workload: "fileserver", Policy: "esm", Scale: 0.1,
		ConfigHash: "abc123def456", GoVersion: "go1.x", Date: "2026-01-01",
		Totals: experiments.ManifestTotals{
			EnergyJ: 1000, AvgEnclosureW: 100, AvgTotalW: 120,
			RespMeanUs: 5000, RespP95Us: 20000,
			SpinUps: 10, Migrations: 5, MigratedBytes: 1 << 30,
		},
	}
}

// TestRunDiffRegressionExit: a >=10% energy regression must come back
// regressed (the caller exits 1) and be marked in the output, while a
// same-totals diff reports no regression.
func TestRunDiffRegressionExit(t *testing.T) {
	dir := t.TempDir()
	a := manifestFixture()
	b := manifestFixture()
	b.Totals.EnergyJ *= 1.10
	aPath := filepath.Join(dir, "a.json")
	bPath := filepath.Join(dir, "b.json")
	if err := a.WriteFile(aPath); err != nil {
		t.Fatal(err)
	}
	if err := b.WriteFile(bPath); err != nil {
		t.Fatal(err)
	}

	regressed, err := runDiff([]string{aPath, bPath})
	if err != nil {
		t.Fatal(err)
	}
	if !regressed {
		t.Fatal("10% energy regression not flagged at the 5% default gate")
	}
	// The same regression passes a loose 25% gate.
	regressed, err = runDiff([]string{"-energy", "0.25", aPath, bPath})
	if err != nil {
		t.Fatal(err)
	}
	if regressed {
		t.Fatal("10% energy delta flagged at a 25% gate")
	}
	// Identical manifests: no regression.
	regressed, err = runDiff([]string{aPath, aPath})
	if err != nil {
		t.Fatal(err)
	}
	if regressed {
		t.Fatal("identical manifests flagged as regression")
	}
}

func TestRenderDiffOutput(t *testing.T) {
	a := manifestFixture()
	b := manifestFixture()
	b.Totals.EnergyJ *= 1.10
	b.ConfigHash = "fff000fff000"
	d := experiments.DiffManifests(a, b, experiments.DefaultDiffThresholds())
	var sb strings.Builder
	renderDiff(&sb, a, b, d)
	out := sb.String()
	for want, why := range map[string]string{
		"energy_j":    "signal row",
		"+10.0%":      "relative delta",
		"REGRESSION":  "regression marker",
		"warning:":    "config hash mismatch warning",
		"resp_p95_us": "response signal row",
		"spin_ups":    "spin-up signal row",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("diff output missing %s (%q):\n%s", why, want, out)
		}
	}
	if strings.Contains(out, "no regression") {
		t.Errorf("regressed diff printed the all-clear line:\n%s", out)
	}

	var clean strings.Builder
	renderDiff(&clean, a, a, experiments.DiffManifests(a, a, experiments.DefaultDiffThresholds()))
	if !strings.Contains(clean.String(), "no regression") {
		t.Errorf("clean diff missing the all-clear line:\n%s", clean.String())
	}
}

// TestRenderDiffTinyDelta: a delta too small for one decimal still
// prints as nonzero, so a zero-threshold regression never reads +0.0%.
func TestRenderDiffTinyDelta(t *testing.T) {
	a := manifestFixture()
	b := manifestFixture()
	b.Totals.EnergyJ *= 1 + 1e-13
	d := experiments.DiffManifests(a, b, experiments.DiffThresholds{})
	var sb strings.Builder
	renderDiff(&sb, a, b, d)
	out := sb.String()
	row := func(signal string) string {
		for _, line := range strings.Split(out, "\n") {
			if strings.Contains(line, signal) {
				return line
			}
		}
		return ""
	}
	if energy := row("energy_j"); !strings.Contains(energy, "REGRESSION") || !strings.Contains(energy, "e-11%") {
		t.Errorf("energy row %q, want a nonzero delta in e-11%% marked REGRESSION:\n%s", energy, out)
	}
	if resp := row("resp_mean_us"); !strings.Contains(resp, "+0.0%") {
		t.Errorf("unchanged row %q, want +0.0%%:\n%s", resp, out)
	}
}

func TestRenderSeriesSummary(t *testing.T) {
	fr := obs.NewFlightRecorder(time.Second)
	for i := 0; i <= 5; i++ {
		obs.Telemetry{Flight: fr}.Sample(obs.FlightSample{T: time.Duration(i) * time.Second, EnclosureEnergyJ: float64(i) * 10}, false)
	}
	var sb strings.Builder
	renderSeries(&sb, fr.Series())
	out := sb.String()
	if !strings.Contains(out, "6 samples") {
		t.Errorf("series summary missing the sample count:\n%s", out)
	}
	if !strings.Contains(out, "enclosure_energy_j") || !strings.Contains(out, "50") {
		t.Errorf("series summary missing the energy column or its last value:\n%s", out)
	}
}

// TestRunSeriesWindowCSV round-trips a series file through the series
// subcommand's reader and window.
func TestRunSeriesWindowCSV(t *testing.T) {
	fr := obs.NewFlightRecorder(time.Second)
	for i := 0; i <= 10; i++ {
		obs.Telemetry{Flight: fr}.Sample(obs.FlightSample{T: time.Duration(i) * time.Second, SpinUps: i}, false)
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "run.series.csv")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := fr.Series().WriteCSV(f); err != nil {
		t.Fatal(err)
	}
	f.Close()

	rf, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer rf.Close()
	s, err := obs.ReadSeriesCSV(rf)
	if err != nil {
		t.Fatal(err)
	}
	w := s.Window(3*time.Second, 7*time.Second)
	if w.Len() != 5 {
		t.Fatalf("window has %d samples, want 5", w.Len())
	}
	if col := w.Column("spin_ups"); col[0] != 3 || col[4] != 7 {
		t.Fatalf("windowed spin_ups %v", col)
	}
}
