// Run manifests and manifest diffing: every `esmbench -series` replay
// writes one BENCH_<workload>-<policy>.json manifest describing the run
// (workload, policy, seed, config hash, go version, final Result
// totals, series file), and `esmstat diff A B` compares two manifests
// signal-by-signal with relative thresholds — the regression gate CI
// runs against a committed baseline.

package experiments

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"time"

	"esm/internal/faults"
	"esm/internal/replay"
	"esm/internal/workload"
)

// ManifestTotals are the final Result totals of one replay, flattened
// for diffing.
type ManifestTotals struct {
	EnergyJ        float64 `json:"energy_j"`
	AvgEnclosureW  float64 `json:"avg_enclosure_w"`
	AvgTotalW      float64 `json:"avg_total_w"`
	RespMeanUs     float64 `json:"resp_mean_us"`
	RespP95Us      float64 `json:"resp_p95_us"`
	SpinUps        int     `json:"spin_ups"`
	Migrations     int64   `json:"migrations"`
	MigratedBytes  int64   `json:"migrated_bytes"`
	Determinations int64   `json:"determinations"`
	CacheHits      int64   `json:"cache_hits"`
	Records        int64   `json:"records"`
	SpanNS         int64   `json:"span_ns"`
	// Alert watchdog aggregates (all zero when the run had no -alerts
	// rules; absent from pre-watchdog manifests, which decode as zero).
	AlertRules       int   `json:"alert_rules,omitempty"`
	AlertsFiring     int   `json:"alerts_firing,omitempty"`
	AlertsFired      int64 `json:"alerts_fired,omitempty"`
	AlertTransitions int64 `json:"alert_transitions,omitempty"`
	// Decision-log roll-up (all zero when the run wrote no -events
	// log; absent from older manifests, which decode as zero).
	// ProvRecords counts the log's lines. Informational, not
	// diff-gated.
	ProvRecords        int64 `json:"provenance_records,omitempty"`
	ProvDecisions      int64 `json:"provenance_decisions,omitempty"`
	ProvTransitions    int64 `json:"provenance_transitions,omitempty"`
	ProvMigrations     int64 `json:"provenance_migrations,omitempty"`
	ProvFaults         int64 `json:"provenance_faults,omitempty"`
	ProvDeterminations int64 `json:"provenance_determinations,omitempty"`
}

// Manifest describes one replay run well enough to compare it against
// another run of the same experiment.
type Manifest struct {
	Workload string  `json:"workload"`
	Policy   string  `json:"policy"`
	Scale    float64 `json:"scale"`
	// Seed is the fault scenario's seed (0 without faults; the replay
	// itself is deterministic and unseeded).
	Seed int64 `json:"seed"`
	// ConfigHash fingerprints the storage configuration plus workload
	// name and scale; a mismatch between two manifests means the diff
	// compares different experiments (warned, not gated).
	ConfigHash string `json:"config_hash"`
	GoVersion  string `json:"go_version"`
	Date       string `json:"date,omitempty"`
	// SeriesFile is the path of the flight-recorder series written
	// alongside this manifest (empty when none was).
	SeriesFile string `json:"series_file,omitempty"`
	// ProvFile is the path of the decision log written for this run
	// (empty without -events).
	ProvFile string         `json:"provenance_file,omitempty"`
	Totals   ManifestTotals `json:"totals"`
}

// NewManifest builds the manifest of one replay result.
func NewManifest(w *workload.Workload, policyName string, scale float64, fc *faults.Config, res *replay.Result) Manifest {
	m := Manifest{
		Workload:   w.Name,
		Policy:     policyName,
		Scale:      scale,
		ConfigHash: configHash(w, scale),
		GoVersion:  runtime.Version(),
		Totals: ManifestTotals{
			EnergyJ:          res.EnergyJ,
			AvgEnclosureW:    res.AvgEnclosureW,
			AvgTotalW:        res.AvgTotalW,
			RespMeanUs:       float64(res.Resp.Mean()) / float64(time.Microsecond),
			RespP95Us:        float64(res.Resp.Percentile(0.95)) / float64(time.Microsecond),
			SpinUps:          res.SpinUps,
			Migrations:       res.Storage.Migrations,
			MigratedBytes:    res.Storage.MigratedBytes,
			Determinations:   res.Determinations,
			CacheHits:        res.Storage.CacheHits,
			Records:          res.Resp.Count(),
			SpanNS:           int64(res.Span),
			AlertRules:       res.Alerts.Rules,
			AlertsFiring:     res.Alerts.Firing,
			AlertsFired:      res.Alerts.Fired,
			AlertTransitions: res.Alerts.Transitions,
		},
	}
	if fc != nil {
		m.Seed = fc.Seed
	}
	if p := res.Provenance; p != nil {
		m.Totals.ProvRecords = p.Rows
		m.Totals.ProvDecisions = p.Decisions
		m.Totals.ProvTransitions = p.Transitions
		m.Totals.ProvMigrations = p.Migrations
		m.Totals.ProvFaults = p.Faults
		m.Totals.ProvDeterminations = p.Determinations
	}
	return m
}

// configHash fingerprints the experiment configuration: the storage
// config JSON plus the workload name and scale.
func configHash(w *workload.Workload, scale float64) string {
	cfg, err := json.Marshal(StorageFor(w))
	if err != nil {
		cfg = []byte(err.Error())
	}
	h := sha256.New()
	h.Write(cfg)
	fmt.Fprintf(h, "|%s|%g", w.Name, scale)
	return fmt.Sprintf("%x", h.Sum(nil))[:12]
}

// WriteFile writes the manifest as indented JSON.
func (m Manifest) WriteFile(path string) error {
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// ReadManifest loads a manifest written by WriteFile.
func ReadManifest(path string) (Manifest, error) {
	var m Manifest
	data, err := os.ReadFile(path)
	if err != nil {
		return m, err
	}
	if err := json.Unmarshal(data, &m); err != nil {
		return m, fmt.Errorf("%s: %w", path, err)
	}
	if m.Workload == "" || m.Policy == "" {
		return m, fmt.Errorf("%s: not a run manifest (missing workload/policy)", path)
	}
	return m, nil
}

// DiffThresholds are the relative regression thresholds per signal
// group: a signal regresses when new > old * (1 + threshold).
type DiffThresholds struct {
	// Energy gates energy_j and avg_enclosure_w.
	Energy float64
	// Resp gates resp_mean_us and resp_p95_us.
	Resp float64
	// SpinUps gates spin_ups.
	SpinUps float64
	// Migrations gates migrations and migrated_bytes.
	Migrations float64
	// Alerts gates alerts_firing and alerts_fired ABSOLUTELY: the run
	// regresses when the new count exceeds the old by more than Alerts
	// (so 0 means any newly firing alert fails, even against a zero
	// baseline — unlike the relative signals, which never gate a zero
	// baseline).
	Alerts float64
}

// DefaultDiffThresholds returns the diff's defaults: 5% on energy, 10%
// on response, spin-ups and migrations, zero extra firing alerts.
func DefaultDiffThresholds() DiffThresholds {
	return DiffThresholds{Energy: 0.05, Resp: 0.10, SpinUps: 0.10, Migrations: 0.10, Alerts: 0}
}

// DiffRow is one signal's comparison.
type DiffRow struct {
	Signal    string
	Old, New  float64
	DeltaPct  float64
	Threshold float64
	Regressed bool
}

// Diff is the outcome of comparing two manifests.
type Diff struct {
	Rows []DiffRow
	// Warnings flag comparisons that are advisory rather than gated:
	// mismatched workload/policy/config-hash/go-version.
	Warnings []string
}

// Regressed reports whether any signal crossed its threshold.
func (d *Diff) Regressed() bool {
	for _, r := range d.Rows {
		if r.Regressed {
			return true
		}
	}
	return false
}

// DiffManifests compares run b against baseline a, signal by signal.
// Every gated signal is lower-is-better; a signal with a zero baseline
// is reported but never gated (its relative delta is undefined).
func DiffManifests(a, b Manifest, th DiffThresholds) *Diff {
	d := &Diff{}
	if a.Workload != b.Workload || a.Policy != b.Policy {
		d.Warnings = append(d.Warnings, fmt.Sprintf(
			"comparing different experiments: %s/%s vs %s/%s", a.Workload, a.Policy, b.Workload, b.Policy))
	}
	if a.ConfigHash != b.ConfigHash {
		d.Warnings = append(d.Warnings, fmt.Sprintf(
			"config hash mismatch (%s vs %s): the runs used different configurations", a.ConfigHash, b.ConfigHash))
	}
	if a.GoVersion != b.GoVersion {
		d.Warnings = append(d.Warnings, fmt.Sprintf(
			"go version mismatch (%s vs %s)", a.GoVersion, b.GoVersion))
	}
	if a.Seed != b.Seed {
		d.Warnings = append(d.Warnings, fmt.Sprintf("fault seed mismatch (%d vs %d)", a.Seed, b.Seed))
	}
	add := func(signal string, old, new, threshold float64) {
		row := DiffRow{Signal: signal, Old: old, New: new, Threshold: threshold}
		if old > 0 {
			row.DeltaPct = (new/old - 1) * 100
			row.Regressed = new > old*(1+threshold)
		}
		d.Rows = append(d.Rows, row)
	}
	ta, tb := a.Totals, b.Totals
	add("energy_j", ta.EnergyJ, tb.EnergyJ, th.Energy)
	add("avg_enclosure_w", ta.AvgEnclosureW, tb.AvgEnclosureW, th.Energy)
	add("resp_mean_us", ta.RespMeanUs, tb.RespMeanUs, th.Resp)
	add("resp_p95_us", ta.RespP95Us, tb.RespP95Us, th.Resp)
	add("spin_ups", float64(ta.SpinUps), float64(tb.SpinUps), th.SpinUps)
	add("migrations", float64(ta.Migrations), float64(tb.Migrations), th.Migrations)
	add("migrated_bytes", float64(ta.MigratedBytes), float64(tb.MigratedBytes), th.Migrations)
	// Alert counts gate absolutely: firing 0 -> N must fail, which the
	// relative rule above (zero baselines never gate) cannot express.
	abs := func(signal string, old, new, allowed float64) {
		row := DiffRow{Signal: signal, Old: old, New: new, Threshold: allowed}
		if old > 0 {
			row.DeltaPct = (new/old - 1) * 100
		}
		row.Regressed = new > old+allowed
		d.Rows = append(d.Rows, row)
	}
	abs("alerts_firing", float64(ta.AlertsFiring), float64(tb.AlertsFiring), th.Alerts)
	abs("alerts_fired", float64(ta.AlertsFired), float64(tb.AlertsFired), th.Alerts)
	return d
}
