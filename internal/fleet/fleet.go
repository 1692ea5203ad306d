// Package fleet is the multi-array control plane of the storage
// manager: N named arrays, each a complete simulated storage unit with
// its own ESM policy instance, sharing one metric registry in which
// every instrument carries an array="<name>" label. Traces arrive live
// over streaming ingest instead of batch replay; the /fleet roll-up
// folds the per-array energy ledgers into fleet-wide joules, cost and
// carbon.
package fleet

import (
	"fmt"
	"os"
	"sort"
	"sync"
	"time"

	"esm/internal/config"
	"esm/internal/faults"
	"esm/internal/obs"
	"esm/internal/trace"
)

// Options configures a Fleet.
type Options struct {
	// Specs declares the arrays. At least one is required; names must
	// be unique.
	Specs []ArraySpec
	// Cost is the roll-up's cost/carbon model. A zero model means
	// DefaultCostModel.
	Cost CostModel
	// Alerts declares fleet-wide budget rules over the /fleet roll-up
	// totals. Every rule's signal must be a fleet_* total; per-array
	// rules live in the specs. Evaluated each time the roll-up is
	// computed (a scrape of /fleet or /alerts).
	Alerts []obs.Rule
}

// Fleet is a fixed set of named live arrays over one shared registry.
// The array set is immutable after New; each array's policy can be
// hot-swapped individually.
type Fleet struct {
	reg    *obs.Registry
	cost   CostModel
	arrays map[string]*Array
	names  []string

	// wd is the fleet-wide budget watchdog; wdMu/wdLast keep concurrent
	// roll-up scrapes from feeding it observations out of time order.
	wd     *obs.Watchdog
	wdMu   sync.Mutex
	wdLast time.Duration
}

// New builds the fleet, creating every array.
func New(opts Options) (*Fleet, error) {
	if len(opts.Specs) == 0 {
		return nil, fmt.Errorf("fleet: no arrays declared")
	}
	cost := opts.Cost
	if cost == (CostModel{}) {
		cost = DefaultCostModel()
	}
	if err := cost.Validate(); err != nil {
		return nil, err
	}
	reg := obs.NewRegistry()
	obs.RegisterBuildInfo(reg)
	for _, r := range opts.Alerts {
		if !r.FleetSignal() {
			return nil, fmt.Errorf("fleet: alert %q: signal %q is per-array; declare it on an array spec", r.Name, r.Signal)
		}
	}
	f := &Fleet{reg: reg, cost: cost, arrays: make(map[string]*Array, len(opts.Specs))}
	f.wd = obs.NewWatchdog(obs.WatchdogOptions{Rules: opts.Alerts, Registry: reg.With("array", config.FleetArrayLabel)})
	for _, spec := range opts.Specs {
		if _, dup := f.arrays[spec.Name]; dup {
			f.Close()
			return nil, fmt.Errorf("fleet: array %q declared twice", spec.Name)
		}
		a, err := newArray(spec, reg)
		if err != nil {
			f.Close()
			return nil, err
		}
		f.arrays[spec.Name] = a
		f.names = append(f.names, spec.Name)
	}
	sort.Strings(f.names)
	return f, nil
}

// FromConfig loads every array named by the fleet file — catalogs,
// placements and per-array configs come from disk relative to the
// process working directory — and builds the fleet.
func FromConfig(file *config.FleetFile) (*Fleet, error) {
	specs := make([]ArraySpec, 0, len(file.Arrays))
	for _, ac := range file.Arrays {
		spec, err := LoadArraySpec(ac)
		if err != nil {
			return nil, err
		}
		specs = append(specs, spec)
	}
	rules, err := obs.ParseRules(file.Alerts)
	if err != nil {
		return nil, fmt.Errorf("fleet: %w", err)
	}
	return New(Options{
		Specs:  specs,
		Cost:   DefaultCostModel().ApplyConfig(file.Cost),
		Alerts: rules,
	})
}

// LoadArraySpec resolves one fleet-file array declaration into a spec
// with its catalog, placement, config and fault scenario loaded.
func LoadArraySpec(ac config.FleetArrayConfig) (ArraySpec, error) {
	spec := ArraySpec{Name: ac.Name, Enclosures: ac.Enclosures, Provenance: ac.Provenance}
	fail := func(err error) (ArraySpec, error) {
		return ArraySpec{}, fmt.Errorf("fleet: array %q: %w", ac.Name, err)
	}
	cat, placement, err := loadDataset(ac.Catalog, ac.Placement)
	if err != nil {
		return fail(err)
	}
	spec.Catalog, spec.Placement = cat, placement
	if ac.Config != "" {
		cfg, err := config.Load(ac.Config)
		if err != nil {
			return fail(err)
		}
		spec.Config = cfg
	}
	if ac.Faults != "" {
		fc, err := faults.ParseSpec(ac.Faults)
		if err != nil {
			return fail(err)
		}
		spec.Faults = fc
	}
	if ac.SeriesInterval != nil {
		spec.SeriesInterval = time.Duration(*ac.SeriesInterval)
	}
	if len(ac.Alerts) > 0 {
		rules, err := obs.ParseRules(ac.Alerts)
		if err != nil {
			return fail(err)
		}
		spec.Alerts = rules
	}
	return spec, nil
}

// loadDataset reads a catalog and placement pair from disk.
func loadDataset(catalogPath, placementPath string) (*trace.Catalog, []int, error) {
	cf, err := os.Open(catalogPath)
	if err != nil {
		return nil, nil, err
	}
	defer cf.Close()
	cat, err := trace.ReadCatalog(cf)
	if err != nil {
		return nil, nil, err
	}
	pf, err := os.Open(placementPath)
	if err != nil {
		return nil, nil, err
	}
	defer pf.Close()
	placement, err := trace.ReadPlacement(pf)
	if err != nil {
		return nil, nil, err
	}
	if len(placement) != cat.Len() {
		return nil, nil, fmt.Errorf("placement covers %d of %d items", len(placement), cat.Len())
	}
	return cat, placement, nil
}

// Cost returns the roll-up model in force.
func (f *Fleet) Cost() CostModel { return f.cost }

// Names returns the array names, sorted.
func (f *Fleet) Names() []string { return append([]string(nil), f.names...) }

// Array returns the named array, or nil.
func (f *Fleet) Array(name string) *Array { return f.arrays[name] }

// Status assembles every array's liveness snapshot, sorted by name.
func (f *Fleet) Status() []Status {
	out := make([]Status, 0, len(f.names))
	for _, name := range f.names {
		out = append(out, f.arrays[name].Status())
	}
	return out
}

// Rollup settles every array's power meter and folds the energy
// ledgers through the cost model. The fleet totals are plain sums of
// the array lines, so summed metered joules are conserved exactly.
func (f *Fleet) Rollup() Rollup {
	r := Rollup{Cost: f.cost}
	for _, name := range f.names {
		line := f.arrays[name].rollup(f.cost)
		r.Arrays = append(r.Arrays, line)
		r.Fleet.add(line)
	}
	f.observeRollup(r.Fleet)
	return r
}

// observeRollup feeds the fleet totals to the budget watchdog at the
// roll-up's span time. Scrapes race; only forward-in-time observations
// are applied, so rate() rules never see a negative interval.
func (f *Fleet) observeRollup(t Totals) {
	if f.wd == nil {
		return
	}
	f.wdMu.Lock()
	defer f.wdMu.Unlock()
	at := time.Duration(t.SpanNS)
	if at < f.wdLast {
		return
	}
	f.wdLast = at
	vals := make(map[string]float64, len(obs.FleetSignals))
	for _, name := range obs.FleetSignals {
		vals[name] = t.signal(name)
	}
	f.wd.ObserveValues(at, vals)
}

// AlertsReport is the /alerts payload: fleet-wide budget rules, every
// array's rules, and the aggregate summary across all watchdogs.
type AlertsReport struct {
	Summary obs.AlertSummary             `json:"summary"`
	Fleet   []obs.AlertStatus            `json:"fleet,omitempty"`
	Arrays  map[string][]obs.AlertStatus `json:"arrays,omitempty"`
}

// Alerts recomputes the roll-up (so fleet budget rules reflect the
// live totals) and assembles the full alert state.
func (f *Fleet) Alerts() AlertsReport {
	f.Rollup()
	rep := AlertsReport{Fleet: f.wd.States()}
	addSummary(&rep.Summary, f.wd.Summary())
	for _, name := range f.names {
		a := f.arrays[name]
		if sts := a.Alerts(); len(sts) > 0 {
			if rep.Arrays == nil {
				rep.Arrays = make(map[string][]obs.AlertStatus)
			}
			rep.Arrays[name] = sts
		}
		addSummary(&rep.Summary, a.AlertSummary())
	}
	return rep
}

// addSummary folds one watchdog's aggregate into dst.
func addSummary(dst *obs.AlertSummary, s obs.AlertSummary) {
	dst.Rules += s.Rules
	dst.Firing += s.Firing
	dst.Pending += s.Pending
	dst.Fired += s.Fired
	dst.Transitions += s.Transitions
}

// FinishAll finalizes every array's stream (idempotent).
func (f *Fleet) FinishAll() error {
	var first error
	for _, name := range f.names {
		if err := f.arrays[name].Finish(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Close closes every array's decision log and trace file.
func (f *Fleet) Close() error {
	var first error
	for _, name := range f.names {
		if err := f.arrays[name].Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// rollup computes one array's roll-up line: settle the meter to the
// array's current simulated time and read the conserved totals.
func (a *Array) rollup(m CostModel) ArrayRollup {
	a.mu.Lock()
	defer a.mu.Unlock()
	arr, now := a.sess.Array(), a.sess.Now()
	arr.Finish()
	var used int64
	for e := 0; e < arr.Enclosures(); e++ {
		used += arr.Used(e)
	}
	return m.roll(a.name, now, arr.Meter().TotalEnergyJ(now), used, a.sess.Records(), arr.Meter().SpinUps())
}
