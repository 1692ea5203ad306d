// Package experiments contains the harnesses that regenerate every table
// and figure of the paper's evaluation (§VI Fig. 6, §VII Figs 8–19, plus
// the §VII-D placement-determination counts). Each harness returns a
// formatted table; cmd/esmbench prints them and bench_test.go reports
// the headline numbers as benchmark metrics.
package experiments

import (
	"fmt"
	"io"
	"strings"
	"time"

	"esm/internal/core"
	"esm/internal/ddr"
	"esm/internal/faults"
	"esm/internal/maid"
	"esm/internal/metrics"
	"esm/internal/monitor"
	"esm/internal/obs"
	"esm/internal/offload"
	"esm/internal/pdc"
	"esm/internal/policy"
	"esm/internal/replay"
	"esm/internal/storage"
	"esm/internal/workload"
)

// PolicyFactory builds fresh policy instances (policies are stateful, so
// every replay needs its own). A failing constructor surfaces as an
// error from the evaluation harness, wrapped with the workload/policy
// label — never a panic inside a sweep worker.
type PolicyFactory struct {
	Name string
	New  func() (policy.Policy, error)
}

// Simple constructor adapts an infallible policy constructor to the
// factory signature.
func Simple(fn func() policy.Policy) func() (policy.Policy, error) {
	return func() (policy.Policy, error) { return fn(), nil }
}

// newESM adapts core.NewESM to the factory signature (an explicit nil
// interface on error, not a typed-nil *core.ESM).
func newESM(params core.Params) (policy.Policy, error) {
	p, err := core.NewESM(params)
	if err != nil {
		return nil, err
	}
	return p, nil
}

// DefaultPolicies returns the paper's comparison set: no power saving,
// the proposed method, PDC and DDR, parameterised per Table II.
func DefaultPolicies() []PolicyFactory {
	return []PolicyFactory{
		{Name: "none", New: Simple(func() policy.Policy { return policy.NoPowerSaving{} })},
		{Name: "esm", New: func() (policy.Policy, error) { return newESM(core.DefaultParams()) }},
		{Name: "pdc", New: Simple(func() policy.Policy { return pdc.New(pdc.DefaultConfig()) })},
		{Name: "ddr", New: Simple(func() policy.Policy { return ddr.New(ddr.DefaultConfig()) })},
	}
}

// PoliciesFor returns the comparison set adjusted for a time-scaled run:
// PDC's 30-minute reorganisation period shrinks with the scale (it would
// otherwise never fire inside a shortened trace), while the proposed
// method and DDR keep their paper parameters — their cadences (520 s
// initial period, 200 ms ticks) already fit scaled runs.
func PoliciesFor(scale float64) []PolicyFactory {
	out := DefaultPolicies()
	if scale >= 1 {
		return out
	}
	for i := range out {
		if out[i].Name != "pdc" {
			continue
		}
		cfg := pdc.DefaultConfig()
		cfg.Period = time.Duration(float64(cfg.Period) * scale)
		if min := 4 * time.Minute; cfg.Period < min {
			cfg.Period = min
		}
		out[i].New = Simple(func() policy.Policy { return pdc.New(cfg) })
	}
	return out
}

// DefaultScale returns the benchmark-default time scale for kind: the
// smallest scale at which every policy's dynamics (warm-up, monitoring
// periods, migrations) still fit inside the run.
func DefaultScale(kind Kind) float64 {
	switch kind {
	case OLTP:
		return 0.35
	case DSS:
		return 0.35
	case CloudBlock:
		// The full 6 h trace runs ~100M records; 10% (36 min, ~10M
		// records) still spans several ESM planning periods while keeping
		// the default four-policy comparison to a couple of minutes.
		return 0.1
	default:
		return 0.5
	}
}

// Kind selects an evaluated application workload.
type Kind string

// The three evaluated applications (Table I), plus the cloud-block
// multi-tenant workload that scales the evaluation past the paper.
const (
	FileServer Kind = "fileserver"
	OLTP       Kind = "oltp"
	DSS        Kind = "dss"
	CloudBlock Kind = "cloudblock"
)

// Kinds lists the paper's three applications in paper order (the
// cloud-block workload is run explicitly, not as part of the paper
// reproduction sweep).
func Kinds() []Kind { return []Kind{FileServer, OLTP, DSS} }

// Build generates the workload for kind at the given time-scale factor
// (1.0 = the paper's full duration). A nonzero seed replaces the
// workload's default seed.
func Build(kind Kind, scale float64, seed int64) (*workload.Workload, error) {
	switch kind {
	case FileServer:
		cfg := workload.DefaultFileServerConfig().Scaled(scale)
		reseed(&cfg.Seed, seed)
		return workload.GenerateFileServer(cfg)
	case OLTP:
		cfg := workload.DefaultOLTPConfig().Scaled(scale)
		reseed(&cfg.Seed, seed)
		return workload.GenerateOLTP(cfg)
	case DSS:
		cfg := workload.DefaultDSSConfig().Scaled(scale)
		reseed(&cfg.Seed, seed)
		return workload.GenerateDSS(cfg)
	case CloudBlock:
		cfg := workload.DefaultCloudBlockConfig().Scaled(scale)
		reseed(&cfg.Seed, seed)
		return workload.GenerateCloudBlock(cfg)
	default:
		return nil, fmt.Errorf("experiments: unknown workload kind %q", kind)
	}
}

// reseed sets *dst to seed unless seed is zero.
func reseed(dst *int64, seed int64) {
	if seed != 0 {
		*dst = seed
	}
}

// StorageFor returns the test-bed storage configuration sized for w.
func StorageFor(w *workload.Workload) storage.Config {
	return storage.DefaultConfig(w.Enclosures)
}

// Eval holds the replay results of one workload under every policy; the
// per-figure formatters read from it so the expensive runs happen once.
type Eval struct {
	Workload *workload.Workload
	Results  []*replay.Result // aligned with Policies
	Policies []PolicyFactory
}

// Evaluate replays w under every policy.
func Evaluate(w *workload.Workload, factories []PolicyFactory) (*Eval, error) {
	return EvaluateOpts(w, factories, Observers{})
}

// Observers bundles the optional per-run observation of an evaluation.
type Observers struct {
	// Telemetry, when non-nil, supplies each policy's run its telemetry
	// surfaces. Every run needs its own surfaces (each describes exactly
	// one replay); esmbench hands out one Perfetto file per policy.
	// Recorders and tracers are not closed here: the caller owns their
	// files.
	Telemetry func(policy string) obs.Telemetry
	// Faults is the fault scenario injected into every run. Every
	// replay builds its own injector from it, so each policy sees the
	// same seeded fault sequence.
	Faults *faults.Config
}

// EvaluateOpts replays w under every policy with the given observers.
// The replays run concurrently on the scheduler's worker pool (bounded
// by SetParallelism); each run gets its own policy instance, clock and
// trace source, so the results are identical to a serial run and come
// back in factory order. Jobs — including every Telemetry callback and
// policy construction — are built serially before any worker starts,
// so a failing PolicyFactory returns a labelled error instead of
// panicking inside a worker.
func EvaluateOpts(w *workload.Workload, factories []PolicyFactory, o Observers) (*Eval, error) {
	ev := &Eval{Workload: w, Policies: factories}
	jobs := make([]runJob, 0, len(factories))
	// A replay that fails may leave its source part-read, with the
	// source's producers blocked, so every source is closed.
	srcs := make([]*workload.Source, 0, len(factories))
	defer func() {
		for _, src := range srcs {
			src.Close()
		}
	}()
	for _, f := range factories {
		pol, err := f.New()
		if err != nil {
			return nil, fmt.Errorf("experiments: %s: %w", w.Name+"/"+f.Name, err)
		}
		srcs = append(srcs, w.Source())
		run := replay.Run{
			Catalog:    w.Catalog,
			Source:     srcs[len(srcs)-1],
			Placement:  w.Placement,
			Storage:    StorageFor(w),
			Policy:     pol,
			Duration:   w.Duration,
			ClosedLoop: w.ClosedLoop,
			Faults:     o.Faults,
		}
		if o.Telemetry != nil {
			run.Telemetry = o.Telemetry(f.Name)
		}
		for _, win := range w.Windows {
			run.Windows = append(run.Windows, replay.Window{Name: win.Name, Start: win.Start, End: win.End})
		}
		jobs = append(jobs, runJob{label: w.Name + "/" + f.Name, run: run})
	}
	results, err := executeJobs(jobs)
	if err != nil {
		return nil, err
	}
	ev.Results = results
	return ev, nil
}

// Result returns the replay result for the named policy, or nil.
func (ev *Eval) Result(name string) *replay.Result {
	for i, f := range ev.Policies {
		if f.Name == name {
			return ev.Results[i]
		}
	}
	return nil
}

// Table is a formatted experiment report.
type Table struct {
	Title  string
	Header []string
	Rows   [][]string
}

// Fprint renders the table with aligned columns.
func (t *Table) Fprint(out io.Writer) {
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	fmt.Fprintf(out, "== %s ==\n", t.Title)
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = fmt.Sprintf("%-*s", widths[i], c)
		}
		fmt.Fprintln(out, "  "+strings.TrimRight(strings.Join(parts, "  "), " "))
	}
	line(t.Header)
	for _, row := range t.Rows {
		line(row)
	}
}

// PatternMix classifies every data item of w over the whole trace with
// the paper's break-even time and returns the Fig. 6 distribution. The
// trace is consumed as a stream, so paper-scale workloads classify
// without ever being materialized.
func PatternMix(w *workload.Workload, breakEven time.Duration) core.PatternMix {
	mon := monitor.NewAppMonitor(w.Catalog.Len(), breakEven)
	src := w.Source()
	defer src.Close()
	for {
		rec, ok := src.Next()
		if !ok {
			break
		}
		mon.Record(rec)
	}
	stats := mon.EndPeriod(w.Duration)
	return core.MixOf(stats)
}

// Fig6Table renders the logical I/O pattern mix of every application.
func Fig6Table(mixes map[Kind]core.PatternMix) *Table {
	t := &Table{
		Title:  "Fig. 6 — Logical I/O patterns of data items",
		Header: []string{"application", "P0", "P1", "P2", "P3", "items"},
	}
	for _, k := range Kinds() {
		m, ok := mixes[k]
		if !ok {
			continue
		}
		t.Rows = append(t.Rows, []string{
			string(k),
			fmt.Sprintf("%.1f%%", m.Frac(core.P0)*100),
			fmt.Sprintf("%.1f%%", m.Frac(core.P1)*100),
			fmt.Sprintf("%.1f%%", m.Frac(core.P2)*100),
			fmt.Sprintf("%.1f%%", m.Frac(core.P3)*100),
			fmt.Sprintf("%d", m.Total),
		})
	}
	return t
}

// PowerTable renders a Fig. 8/11/14-style power comparison: average
// enclosure power per policy plus the reduction against "none".
func PowerTable(title string, ev *Eval) *Table {
	t := &Table{
		Title:  title,
		Header: []string{"policy", "encl W", "total W", "saving", "determinations", "spinups"},
	}
	base := ev.Result("none")
	for i, f := range ev.Policies {
		r := ev.Results[i]
		saving := "-"
		if base != nil && f.Name != "none" && base.AvgEnclosureW > 0 {
			saving = fmt.Sprintf("%.1f%%", (1-r.AvgEnclosureW/base.AvgEnclosureW)*100)
		}
		t.Rows = append(t.Rows, []string{
			f.Name,
			fmt.Sprintf("%.1f", r.AvgEnclosureW),
			fmt.Sprintf("%.1f", r.AvgTotalW),
			saving,
			fmt.Sprintf("%d", r.Determinations),
			fmt.Sprintf("%d", r.SpinUps),
		})
	}
	return t
}

// LatencyTable renders each policy's traced latency breakdown: one row
// per serve cause and per I/O phase, with the histogram percentiles.
// Policies whose run carried no tracer are skipped.
func LatencyTable(title string, ev *Eval) *Table {
	t := &Table{
		Title:  title,
		Header: []string{"policy", "segment", "count", "mean", "p50", "p95", "p99", "max"},
	}
	row := func(policy, kind string, r obs.LatencyRow) []string {
		return []string{
			policy, kind + ":" + r.Name,
			fmt.Sprintf("%d", r.Count),
			r.Mean.String(), r.P50.String(), r.P95.String(), r.P99.String(), r.Max.String(),
		}
	}
	for i, f := range ev.Policies {
		sum := ev.Results[i].Latency
		if sum == nil {
			continue
		}
		t.Rows = append(t.Rows, row(f.Name, "all", sum.Total))
		for _, r := range sum.ByCause {
			t.Rows = append(t.Rows, row(f.Name, "cause", r))
		}
		for _, r := range sum.ByPhase {
			t.Rows = append(t.Rows, row(f.Name, "phase", r))
		}
	}
	return t
}

// AttributionTable renders each policy's traced energy attribution per
// pattern class and per management function. Policies whose run
// carried no tracer are skipped.
func AttributionTable(title string, ev *Eval) *Table {
	t := &Table{
		Title:  title,
		Header: []string{"policy", "bucket", "joules", "share"},
	}
	for i, f := range ev.Policies {
		a := ev.Results[i].Attribution
		if a == nil || a.TotalJ <= 0 {
			continue
		}
		add := func(bucket string, j float64) {
			t.Rows = append(t.Rows, []string{
				f.Name, bucket,
				fmt.Sprintf("%.1f", j),
				fmt.Sprintf("%.1f%%", j/a.TotalJ*100),
			})
		}
		for c := 0; c < 5; c++ {
			add("class:"+obs.ClassName(c), a.ByClass[c])
		}
		for fn := obs.EnergyFunc(0); fn < obs.EnergyFuncCount; fn++ {
			add("func:"+fn.String(), a.ByFunc[fn])
		}
	}
	return t
}

// FaultTable summarises each policy's behaviour under an injected fault
// scenario: the injected fault load, the operations it killed, and how
// often the policy fell back to degraded mode.
func FaultTable(title string, ev *Eval) *Table {
	t := &Table{
		Title:  title,
		Header: []string{"policy", "spinup fails", "exhausted", "io errors", "failed app I/O", "failed migr", "degradations"},
	}
	for i, f := range ev.Policies {
		r := ev.Results[i]
		c := r.Faults
		t.Rows = append(t.Rows, []string{
			f.Name,
			fmt.Sprintf("%d", c.SpinUpFailures),
			fmt.Sprintf("%d", c.SpinUpExhausted),
			fmt.Sprintf("%d", c.TransientIOErrors),
			fmt.Sprintf("%d", c.FailedAppIOs),
			fmt.Sprintf("%d", c.FailedMigrations),
			fmt.Sprintf("%d", r.Degradations),
		})
	}
	return t
}

// ResponseTable renders a Fig. 9-style response-time comparison.
func ResponseTable(title string, ev *Eval) *Table {
	t := &Table{
		Title:  title,
		Header: []string{"policy", "mean", "read mean", "p99", "max", "cache hits"},
	}
	for i, f := range ev.Policies {
		r := ev.Results[i]
		t.Rows = append(t.Rows, []string{
			f.Name,
			r.Resp.Mean().String(),
			r.Resp.ReadMean().String(),
			r.Resp.Percentile(0.99).String(),
			r.Resp.Max().String(),
			fmt.Sprintf("%d", r.Storage.CacheHits),
		})
	}
	return t
}

// MigrationTable renders a Fig. 10/13/16-style migrated-data comparison.
func MigrationTable(title string, ev *Eval) *Table {
	t := &Table{
		Title:  title,
		Header: []string{"policy", "migrated", "migrations", "skipped"},
	}
	for i, f := range ev.Policies {
		r := ev.Results[i]
		t.Rows = append(t.Rows, []string{
			f.Name,
			fmtBytes(r.Storage.MigratedBytes),
			fmt.Sprintf("%d", r.Storage.Migrations),
			fmt.Sprintf("%d", r.Storage.MigrationsSkipped),
		})
	}
	return t
}

// ThroughputTable renders the Fig. 12 derived TPC-C throughput.
func ThroughputTable(ev *Eval) *Table {
	t := &Table{
		Title:  "Fig. 12 — TPC-C transaction throughput (derived, tpmC)",
		Header: []string{"policy", "tpmC", "vs none"},
	}
	base := ev.Result("none")
	if base == nil {
		return t
	}
	for i, f := range ev.Policies {
		r := ev.Results[i]
		tpmc := metrics.DerivedThroughput(ev.Workload.BaseThroughput, base.Resp.ReadMean(), r.Resp.ReadMean())
		t.Rows = append(t.Rows, []string{
			f.Name,
			fmt.Sprintf("%.1f", tpmc),
			fmt.Sprintf("%+.1f%%", (tpmc/ev.Workload.BaseThroughput-1)*100),
		})
	}
	return t
}

// QueryResponseTable renders the Fig. 15 derived TPC-H query responses
// for the named queries (the paper reports Q2, Q7 and Q21).
func QueryResponseTable(ev *Eval, queries []string) *Table {
	t := &Table{
		Title:  "Fig. 15 — TPC-H query response time (derived)",
		Header: append([]string{"policy"}, queries...),
	}
	base := ev.Result("none")
	if base == nil {
		return t
	}
	baseWin := map[string]replay.WindowResult{}
	qOrig := map[string]time.Duration{}
	for _, wr := range base.Windows {
		baseWin[wr.Name] = wr
	}
	for _, w := range ev.Workload.Windows {
		qOrig[w.Name] = w.End - w.Start
	}
	for i, f := range ev.Policies {
		row := []string{f.Name}
		winOf := map[string]replay.WindowResult{}
		for _, wr := range ev.Results[i].Windows {
			winOf[wr.Name] = wr
		}
		for _, q := range queries {
			d := metrics.DerivedQueryResponse(qOrig[q], winOf[q].ReadSum, baseWin[q].ReadSum)
			row = append(row, d.Round(time.Second).String())
		}
		t.Rows = append(t.Rows, row)
	}
	return t
}

// IntervalTable renders the Figs 17–19 cumulative interval analysis: the
// total length of enclosure-level I/O intervals at least as long as each
// threshold, per policy.
func IntervalTable(title string, ev *Eval, thresholds []time.Duration) *Table {
	header := []string{"policy"}
	for _, th := range thresholds {
		header = append(header, ">="+th.String())
	}
	t := &Table{Title: title, Header: header}
	for i, f := range ev.Policies {
		row := []string{f.Name}
		for _, th := range thresholds {
			row = append(row, metrics.CumulativeAbove(ev.Results[i].Monitor, th).Round(time.Second).String())
		}
		t.Rows = append(t.Rows, row)
	}
	return t
}

// DefaultIntervalThresholds are the x-axis points used for Figs 17–19.
func DefaultIntervalThresholds() []time.Duration {
	return []time.Duration{52 * time.Second, 2 * time.Minute, 8 * time.Minute, 32 * time.Minute}
}

func fmtBytes(n int64) string {
	switch {
	case n >= 1<<40:
		return fmt.Sprintf("%.2f TB", float64(n)/(1<<40))
	case n >= 1<<30:
		return fmt.Sprintf("%.2f GB", float64(n)/(1<<30))
	case n >= 1<<20:
		return fmt.Sprintf("%.2f MB", float64(n)/(1<<20))
	default:
		return fmt.Sprintf("%d B", n)
	}
}

// AblationPolicies returns the proposed method plus variants with one
// lever removed each (data placement, preload, write delay), framed by
// the no-power-saving and plain-timeout baselines. It drives the
// design-choice study: how much of the saving does each §II-E mechanism
// contribute?
func AblationPolicies() []PolicyFactory {
	esmVariant := func(name string, mutate func(*core.Params)) PolicyFactory {
		return PolicyFactory{Name: name, New: func() (policy.Policy, error) {
			params := core.DefaultParams()
			mutate(&params)
			return newESM(params)
		}}
	}
	return []PolicyFactory{
		{Name: "none", New: Simple(func() policy.Policy { return policy.NoPowerSaving{} })},
		{Name: "timeout", New: Simple(func() policy.Policy { return policy.FixedTimeout{} })},
		esmVariant("esm", func(*core.Params) {}),
		esmVariant("esm-nomigrate", func(p *core.Params) { p.DisableMigration = true }),
		esmVariant("esm-nopreload", func(p *core.Params) { p.DisablePreload = true }),
		esmVariant("esm-nowdelay", func(p *core.Params) { p.DisableWriteDelay = true }),
	}
}

// sparkRunes are the eight-level block characters used for the power
// sparklines.
var sparkRunes = []rune("▁▂▃▄▅▆▇█")

// sparkline renders values scaled to [min, max] across the rune levels.
func sparkline(values []float64, min, max float64) string {
	if len(values) == 0 {
		return ""
	}
	if max <= min {
		max = min + 1
	}
	out := make([]rune, len(values))
	for i, v := range values {
		f := (v - min) / (max - min)
		if f < 0 {
			f = 0
		}
		if f > 1 {
			f = 1
		}
		out[i] = sparkRunes[int(f*float64(len(sparkRunes)-1)+0.5)]
	}
	return string(out)
}

// PowerSeriesChart renders per-policy power-over-time sparklines (the
// §III-B power-consumption records), all on a shared scale so the
// policies' duty cycles can be compared at a glance.
func PowerSeriesChart(title string, ev *Eval) *Table {
	t := &Table{Title: title, Header: []string{"policy", "enclosure power over time (shared scale)"}}
	var min, max float64
	first := true
	for _, r := range ev.Results {
		for _, v := range r.PowerSeries {
			if first || v < min {
				min = v
			}
			if first || v > max {
				max = v
			}
			first = false
		}
	}
	for i, f := range ev.Policies {
		series := ev.Results[i].PowerSeries
		// Downsample to at most 64 columns.
		step := (len(series) + 63) / 64
		if step < 1 {
			step = 1
		}
		var ds []float64
		for j := 0; j < len(series); j += step {
			var sum float64
			n := 0
			for k := j; k < j+step && k < len(series); k++ {
				sum += series[k]
				n++
			}
			ds = append(ds, sum/float64(n))
		}
		t.Rows = append(t.Rows, []string{f.Name, sparkline(ds, min, max)})
	}
	return t
}

// ExtendedPolicies returns the paper's comparison set plus the wider
// related-work baselines implemented in this repository: the plain
// spin-down timeout, MAID (cache disks, §VIII-B's archetype) and write
// off-loading (the FAST'08 system behind the MSR traces).
func ExtendedPolicies(scale float64) []PolicyFactory {
	out := PoliciesFor(scale)
	out = append(out,
		PolicyFactory{Name: "timeout", New: Simple(func() policy.Policy { return policy.FixedTimeout{} })},
		PolicyFactory{Name: "maid", New: Simple(func() policy.Policy { return maid.New(maid.DefaultConfig()) })},
		PolicyFactory{Name: "offload", New: Simple(func() policy.Policy { return offload.New(offload.DefaultConfig()) })},
	)
	return out
}

// StateMixTable renders each policy's aggregate enclosure state
// residency: what fraction of all enclosure-hours went to Active, Idle,
// Off and SpinUp. It decomposes the power savings of the comparison
// figures into their mechanism — time converted from Idle to Off.
func StateMixTable(title string, ev *Eval) *Table {
	t := &Table{
		Title:  title,
		Header: []string{"policy", "active", "idle", "off", "spinup"},
	}
	for i, f := range ev.Policies {
		var mix replay.StateResidency
		n := float64(len(ev.Results[i].StateMix))
		if n == 0 {
			continue
		}
		for _, m := range ev.Results[i].StateMix {
			mix.Active += m.Active / n
			mix.Idle += m.Idle / n
			mix.Off += m.Off / n
			mix.SpinUp += m.SpinUp / n
		}
		t.Rows = append(t.Rows, []string{
			f.Name,
			fmt.Sprintf("%.1f%%", mix.Active*100),
			fmt.Sprintf("%.1f%%", mix.Idle*100),
			fmt.Sprintf("%.1f%%", mix.Off*100),
			fmt.Sprintf("%.1f%%", mix.SpinUp*100),
		})
	}
	return t
}
