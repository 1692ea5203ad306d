// Machine-readable benchmark reports. `esmbench -json` (and the
// `make bench-json` target) serialize every figure's per-policy results
// here so CI can diff runs instead of scraping the printed tables.

package experiments

import (
	"encoding/json"
	"io"

	"esm/internal/metrics"
)

// FigureResult is one (workload, policy) replay outcome, flattened for
// JSON diffing.
type FigureResult struct {
	Workload       string  `json:"workload"`
	Policy         string  `json:"policy"`
	Scale          float64 `json:"scale"`
	Records        int64   `json:"records"`
	AvgEnclosureW  float64 `json:"avg_enclosure_w"`
	AvgTotalW      float64 `json:"avg_total_w"`
	EnergyJ        float64 `json:"energy_j"`
	SavingPct      float64 `json:"saving_pct"`
	RespMeanUs     int64   `json:"resp_mean_us"`
	RespReadMeanUs int64   `json:"resp_read_mean_us"`
	RespP99Us      int64   `json:"resp_p99_us"`
	MigratedBytes  int64   `json:"migrated_bytes"`
	Migrations     int64   `json:"migrations"`
	Determinations int64   `json:"determinations"`
	SpinUps        int     `json:"spin_ups"`
	ThroughputTpmC float64 `json:"throughput_tpmc,omitempty"`
	WallSeconds    float64 `json:"wall_seconds"`
}

// Report is the top-level bench-json document.
type Report struct {
	// Date is the run date (YYYY-MM-DD).
	Date string `json:"date"`
	// Parallel is the configured replay concurrency bound for the run
	// (-parallel, or GOMAXPROCS when unset).
	Parallel int `json:"parallel"`
	// ParallelEffective is the widest worker pool the scheduler actually
	// spawned: Parallel clamped to the largest job batch. When this is
	// below Parallel, the bound was wider than the evaluation.
	ParallelEffective int `json:"parallel_effective"`
	// GOMAXPROCS is the Go runtime's CPU parallelism cap at run time —
	// the hard ceiling on how many replays make progress simultaneously
	// regardless of the flags.
	GOMAXPROCS int `json:"gomaxprocs"`
	// Figures holds one entry per (workload, policy) replay, in
	// evaluation order.
	Figures []FigureResult `json:"figures"`
}

// AddEval appends every result of ev to the report. scale is the trace
// scale the workload was built at, wall the wall-clock seconds the whole
// evaluation took (the scheduler runs policies concurrently, so the
// wall time belongs to the evaluation, not a single policy; it is
// repeated on each row).
func (rp *Report) AddEval(ev *Eval, scale, wall float64) {
	base := ev.Result("none")
	for _, res := range ev.Results {
		fr := FigureResult{
			Workload:       ev.Workload.Name,
			Policy:         res.PolicyName,
			Scale:          scale,
			Records:        res.Resp.Count(),
			AvgEnclosureW:  res.AvgEnclosureW,
			AvgTotalW:      res.AvgTotalW,
			EnergyJ:        res.EnergyJ,
			RespMeanUs:     res.Resp.Mean().Microseconds(),
			RespReadMeanUs: res.Resp.ReadMean().Microseconds(),
			RespP99Us:      res.Resp.Percentile(0.99).Microseconds(),
			MigratedBytes:  res.Storage.MigratedBytes,
			Migrations:     res.Storage.Migrations,
			Determinations: res.Determinations,
			SpinUps:        res.SpinUps,
			WallSeconds:    wall,
		}
		if base != nil && base.AvgEnclosureW > 0 {
			fr.SavingPct = (1 - res.AvgEnclosureW/base.AvgEnclosureW) * 100
		}
		if ev.Workload.BaseThroughput > 0 && base != nil {
			fr.ThroughputTpmC = metrics.DerivedThroughput(
				ev.Workload.BaseThroughput, base.Resp.ReadMean(), res.Resp.ReadMean())
		}
		rp.Figures = append(rp.Figures, fr)
	}
}

// Write serializes the report as indented JSON.
func (rp *Report) Write(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(rp)
}
