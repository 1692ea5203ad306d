// Sensitivity sweeps: how the proposed method's saving and performance
// respond to the main tunables. The paper fixes these at the Table II
// values and defers configuration studies to future work (§IX); these
// harnesses provide them. Every sweep batches its baseline and all its
// points through the worker-pool scheduler, so a sweep costs about as
// much wall-clock as its slowest single replay. DefaultSweeps replays
// one trace about thirty times, so it collects the records once and
// every job reads its own SliceSource over that shared, read-only
// slice instead of regenerating the trace.

package experiments

import (
	"fmt"
	"time"

	"esm/internal/core"
	"esm/internal/policy"
	"esm/internal/powermodel"
	"esm/internal/replay"
	"esm/internal/storage"
	"esm/internal/trace"
	"esm/internal/workload"
)

// sweepPoint is one sweep row.
type sweepPoint struct {
	Label         string
	AvgEnclosureW float64
	SavingPct     float64
	RespMean      time.Duration
	MigratedBytes int64
	SpinUps       int
}

// runFor assembles the standard replay run of w under pol: a fresh
// source over w's collected records recs, the workload's own span and
// loop mode.
func runFor(w *workload.Workload, recs []trace.LogicalRecord, cfg storage.Config, pol policy.Policy) replay.Run {
	return replay.Run{
		Catalog:    w.Catalog,
		Source:     trace.NewSliceSource(recs),
		Placement:  w.Placement,
		Storage:    cfg,
		Policy:     pol,
		Duration:   w.Duration,
		ClosedLoop: w.ClosedLoop,
	}
}

// sweepVariant is one ESM configuration point of a sweep.
type sweepVariant struct {
	label  string
	cfg    storage.Config
	params core.Params
}

// runSweepESM schedules the no-power-saving baseline plus one ESM replay
// per variant and renders the sweep rows in variant order.
func runSweepESM(title string, w *workload.Workload, recs []trace.LogicalRecord, variants []sweepVariant) (*Table, error) {
	jobs := make([]runJob, 0, len(variants)+1)
	jobs = append(jobs, runJob{
		label: w.Name + "/sweep-baseline",
		run:   runFor(w, recs, StorageFor(w), policy.NoPowerSaving{}),
	})
	for _, v := range variants {
		esm, err := core.NewESM(v.params)
		if err != nil {
			return nil, err
		}
		jobs = append(jobs, runJob{
			label: w.Name + "/sweep " + v.label,
			run:   runFor(w, recs, v.cfg, esm),
		})
	}
	results, err := executeJobs(jobs)
	if err != nil {
		return nil, err
	}
	base := results[0].AvgEnclosureW
	pts := make([]sweepPoint, 0, len(variants))
	for i, v := range variants {
		res := results[i+1]
		p := sweepPoint{
			Label:         v.label,
			AvgEnclosureW: res.AvgEnclosureW,
			RespMean:      res.Resp.Mean(),
			MigratedBytes: res.Storage.MigratedBytes,
			SpinUps:       res.SpinUps,
		}
		if base > 0 {
			p.SavingPct = (1 - res.AvgEnclosureW/base) * 100
		}
		pts = append(pts, p)
	}
	return sweepTable(title, pts), nil
}

// sweepTable renders sweep points.
func sweepTable(title string, pts []sweepPoint) *Table {
	t := &Table{
		Title:  title,
		Header: []string{"value", "encl W", "saving", "response", "migrated", "spinups"},
	}
	for _, p := range pts {
		t.Rows = append(t.Rows, []string{
			p.Label,
			fmt.Sprintf("%.1f", p.AvgEnclosureW),
			fmt.Sprintf("%.1f%%", p.SavingPct),
			p.RespMean.Round(10 * time.Microsecond).String(),
			fmtBytes(p.MigratedBytes),
			fmt.Sprintf("%d", p.SpinUps),
		})
	}
	return t
}

// sweepCacheSizes varies the preload and write-delay partitions together
// (Table II fixes both at 500 MB within the 2 GB cache).
func sweepCacheSizes(w *workload.Workload, recs []trace.LogicalRecord, sizes []int64) (*Table, error) {
	variants := make([]sweepVariant, 0, len(sizes))
	for _, size := range sizes {
		cfg := StorageFor(w)
		cfg.PreloadCacheBytes = size
		cfg.WriteDelayCacheBytes = size
		if cfg.CacheBytes < 2*size {
			cfg.CacheBytes = 2 * size
		}
		params := core.DefaultParams()
		params.PreloadCacheBytes = size
		params.WriteDelayCacheBytes = size
		variants = append(variants, sweepVariant{label: fmtBytes(size), cfg: cfg, params: params})
	}
	return runSweepESM("Sweep — preload/write-delay cache size ("+w.Name+")", w, recs, variants)
}

// sweepSpinDownTimeout varies the spin-down timeout relative to the
// break-even time. Below break-even the enclosure pays more energy to
// wake than it saved sleeping; far above it the idle interval is mostly
// wasted awake.
func sweepSpinDownTimeout(w *workload.Workload, recs []trace.LogicalRecord, timeouts []time.Duration) (*Table, error) {
	variants := make([]sweepVariant, 0, len(timeouts))
	for _, to := range timeouts {
		cfg := StorageFor(w)
		cfg.SpinDownTimeout = to
		variants = append(variants, sweepVariant{label: to.String(), cfg: cfg, params: core.DefaultParams()})
	}
	return runSweepESM("Sweep — spin-down timeout ("+w.Name+")", w, recs, variants)
}

// sweepMigrationBps varies the data-migration throttle (§V-A).
func sweepMigrationBps(w *workload.Workload, recs []trace.LogicalRecord, rates []float64) (*Table, error) {
	variants := make([]sweepVariant, 0, len(rates))
	for _, bps := range rates {
		cfg := StorageFor(w)
		cfg.MigrationBps = bps
		label := fmt.Sprintf("%.0f MB/s", bps/(1<<20))
		variants = append(variants, sweepVariant{label: label, cfg: cfg, params: core.DefaultParams()})
	}
	return runSweepESM("Sweep — migration throttle ("+w.Name+")", w, recs, variants)
}

// sweepAlpha varies the monitoring-period coefficient α (§IV-H).
func sweepAlpha(w *workload.Workload, recs []trace.LogicalRecord, alphas []float64) (*Table, error) {
	variants := make([]sweepVariant, 0, len(alphas))
	for _, a := range alphas {
		params := core.DefaultParams()
		params.Alpha = a
		variants = append(variants, sweepVariant{label: fmt.Sprintf("%.2f", a), cfg: StorageFor(w), params: params})
	}
	return runSweepESM("Sweep — monitoring coefficient alpha ("+w.Name+")", w, recs, variants)
}

// DefaultSweeps runs every sweep and the media comparison on w with
// canonical value grids, collecting w's trace once for all of them.
func DefaultSweeps(w *workload.Workload) ([]*Table, error) {
	src := w.Source()
	recs, err := trace.CollectSource(src)
	src.Close()
	if err != nil {
		return nil, err
	}
	var tables []*Table
	t, err := sweepCacheSizes(w, recs, []int64{125 << 20, 250 << 20, 500 << 20, 1 << 30})
	if err != nil {
		return nil, err
	}
	tables = append(tables, t)
	t, err = sweepSpinDownTimeout(w, recs, []time.Duration{13 * time.Second, 26 * time.Second, 52 * time.Second, 104 * time.Second, 208 * time.Second})
	if err != nil {
		return nil, err
	}
	tables = append(tables, t)
	t, err = sweepMigrationBps(w, recs, []float64{50 << 20, 100 << 20, 200 << 20, 400 << 20})
	if err != nil {
		return nil, err
	}
	tables = append(tables, t)
	t, err = sweepAlpha(w, recs, []float64{1.05, 1.2, 1.5, 2.0})
	if err != nil {
		return nil, err
	}
	tables = append(tables, t)
	t, err = compareMedia(w, recs)
	if err != nil {
		return nil, err
	}
	tables = append(tables, t)
	return tables, nil
}

// compareMedia replays w under every policy on the HDD test bed and on
// an all-flash variant (powermodel.SSDParams, with the spin-down timeout
// and the policies' break-even set to the flash-derived value). It
// quantifies §VIII-D's claim that the method carries over to SSDs. All
// six replays are scheduled as one batch.
func compareMedia(w *workload.Workload, recs []trace.LogicalRecord) (*Table, error) {
	t := &Table{
		Title:  "Media comparison — HDD vs SSD enclosures (" + w.Name + ")",
		Header: []string{"policy", "HDD W", "HDD saving", "SSD W", "SSD saving"},
	}
	type media struct {
		name   string
		cfg    storage.Config
		params core.Params
	}
	hdd := media{name: "hdd", cfg: StorageFor(w), params: core.DefaultParams()}
	ssdCfg := StorageFor(w)
	ssdCfg.Power = powermodel.SSDParams()
	ssdBE := ssdCfg.Power.BreakEven()
	ssdCfg.SpinDownTimeout = ssdBE
	ssdParams := core.DefaultParams()
	ssdParams.BreakEven = ssdBE
	ssdParams.MinPeriod = 520 * time.Second
	ssdParams.ReplanCooldown = 5 * ssdBE
	ssd := media{name: "ssd", cfg: ssdCfg, params: ssdParams}

	order := []string{"none", "timeout", "esm"}
	var jobs []runJob
	for _, m := range []media{hdd, ssd} {
		for _, name := range order {
			var pol policy.Policy
			switch name {
			case "none":
				pol = policy.NoPowerSaving{}
			case "timeout":
				pol = policy.FixedTimeout{}
			case "esm":
				esm, err := core.NewESM(m.params)
				if err != nil {
					return nil, err
				}
				pol = esm
			}
			jobs = append(jobs, runJob{
				label: fmt.Sprintf("%s/media %s/%s", w.Name, m.name, name),
				run:   runFor(w, recs, m.cfg, pol),
			})
		}
	}
	results, err := executeJobs(jobs)
	if err != nil {
		return nil, err
	}

	type row struct{ w, saving [2]float64 }
	rows := map[string]*row{}
	for mi := range 2 {
		var baseW float64
		for ni, name := range order {
			res := results[mi*len(order)+ni]
			if rows[name] == nil {
				rows[name] = &row{}
			}
			rows[name].w[mi] = res.AvgEnclosureW
			if name == "none" {
				baseW = res.AvgEnclosureW
			}
			if baseW > 0 {
				rows[name].saving[mi] = (1 - res.AvgEnclosureW/baseW) * 100
			}
		}
	}
	for _, name := range order {
		r := rows[name]
		t.Rows = append(t.Rows, []string{
			name,
			fmt.Sprintf("%.1f", r.w[0]),
			fmt.Sprintf("%.1f%%", r.saving[0]),
			fmt.Sprintf("%.1f", r.w[1]),
			fmt.Sprintf("%.1f%%", r.saving[1]),
		})
	}
	return t, nil
}
