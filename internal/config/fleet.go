// Fleet configuration: the document esmd -fleet boots from. It names
// the arrays of the control plane (each with its own catalog,
// placement and per-array config overrides) and the cost/carbon model
// applied by the /fleet roll-up. Like the per-run config, every field
// is optional except the array identity triple, so a fleet file only
// states deviations.

package config

import (
	"encoding/json"
	"fmt"
	"io"
	"os"

	"esm/internal/obs"
)

// FleetFile is the top-level fleet configuration document.
type FleetFile struct {
	// Listen is the default control-plane address; the -listen flag
	// overrides it.
	Listen string `json:"listen,omitempty"`
	// Cost overrides the fleet roll-up's cost/carbon model constants.
	Cost *CostConfig `json:"cost,omitempty"`
	// Alerts declares fleet-wide budget rules over the /fleet roll-up
	// totals, in the "name:condition[:for=DUR]" grammar of
	// obs.ParseRule. Signals must be fleet_* roll-up totals
	// (fleet_cost_usd, fleet_total_kgco2, fleet_metered_j, …).
	Alerts []string `json:"alerts,omitempty"`
	// Arrays declares the managed arrays. At least one is required.
	Arrays []FleetArrayConfig `json:"arrays"`
}

// FleetArrayConfig declares one array of the fleet.
type FleetArrayConfig struct {
	// Name identifies the array in URLs (/arrays/<name>/…) and in the
	// array="<name>" label of every namespaced metric. Required;
	// letters, digits, '-', '_' and '.' only.
	Name string `json:"name"`
	// Catalog and Placement are the item catalog and initial-placement
	// paths, as for single-array esmd. Required.
	Catalog   string `json:"catalog"`
	Placement string `json:"placement"`
	// Config optionally points at a per-array JSON config (storage and
	// policy overrides, the File document of this package).
	Config string `json:"config,omitempty"`
	// Enclosures overrides the enclosure count (0 = infer from the
	// placement).
	Enclosures int `json:"enclosures,omitempty"`
	// Faults is an optional fault-injection spec
	// ("seed=42,spinup=0.1,…"), as for esmd -faults.
	Faults string `json:"faults,omitempty"`
	// SeriesInterval is the flight-recorder sampling interval on the
	// simulated clock (default 30s).
	SeriesInterval *Duration `json:"series_interval,omitempty"`
	// Alerts declares this array's watchdog rules, evaluated on its
	// flight-sampling grid. Signals are flight-recorder columns
	// (total_energy_j, resp_p99_us, spin_ups, degraded, …); fleet_*
	// signals belong in the top-level alerts list.
	Alerts []string `json:"alerts,omitempty"`
	// Provenance serves the live tail of the array's decision log at
	// /arrays/<name>/provenance (as esmd -events does).
	Provenance bool `json:"provenance,omitempty"`
}

// CostConfig overrides the fleet cost/carbon model. All fields are
// optional; omitted values keep the defaults documented in
// fleet.DefaultCostModel.
type CostConfig struct {
	// PUE is the data-center power usage effectiveness multiplier.
	PUE *float64 `json:"pue,omitempty"`
	// ElectricityUSDPerKWh prices metered facility energy.
	ElectricityUSDPerKWh *float64 `json:"electricity_usd_per_kwh,omitempty"`
	// GridKgCO2PerKWh is the grid carbon intensity.
	GridKgCO2PerKWh *float64 `json:"grid_kgco2_per_kwh,omitempty"`
	// ReplicationFactor scales one array's footprint to its replicas.
	ReplicationFactor *float64 `json:"replication_factor,omitempty"`
	// EmbodiedKgCO2PerTB is the fabrication carbon per stored TB.
	EmbodiedKgCO2PerTB *float64 `json:"embodied_kgco2_per_tb,omitempty"`
	// LifespanYears amortizes the embodied carbon.
	LifespanYears *float64 `json:"lifespan_years,omitempty"`
}

// LoadFleet reads a fleet configuration from path.
func LoadFleet(path string) (*FleetFile, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ParseFleet(f)
}

// ParseFleet decodes a fleet document, rejecting unknown fields so
// typos fail loudly, and validates it.
func ParseFleet(r io.Reader) (*FleetFile, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var file FleetFile
	if err := dec.Decode(&file); err != nil {
		return nil, fmt.Errorf("config: fleet: %w", err)
	}
	if err := file.Validate(); err != nil {
		return nil, err
	}
	return &file, nil
}

// Validate checks the array declarations.
func (f *FleetFile) Validate() error {
	if len(f.Arrays) == 0 {
		return fmt.Errorf("config: fleet declares no arrays")
	}
	fleetRules, err := obs.ParseRules(f.Alerts)
	if err != nil {
		return fmt.Errorf("config: fleet alerts: %w", err)
	}
	for _, r := range fleetRules {
		if !r.FleetSignal() {
			return fmt.Errorf("config: fleet alert %q: signal %q is per-array; move the rule into that array's alerts list", r.Name, r.Signal)
		}
	}
	seen := make(map[string]bool, len(f.Arrays))
	for i, a := range f.Arrays {
		if err := ValidateArrayName(a.Name); err != nil {
			return fmt.Errorf("config: fleet array %d: %w", i, err)
		}
		if seen[a.Name] {
			return fmt.Errorf("config: fleet array %q declared twice", a.Name)
		}
		seen[a.Name] = true
		if a.Catalog == "" || a.Placement == "" {
			return fmt.Errorf("config: fleet array %q: catalog and placement are required", a.Name)
		}
		rules, err := obs.ParseRules(a.Alerts)
		if err != nil {
			return fmt.Errorf("config: fleet array %q: alerts: %w", a.Name, err)
		}
		for _, r := range rules {
			if r.FleetSignal() {
				return fmt.Errorf("config: fleet array %q: alert %q: fleet_* signals belong in the top-level alerts list", a.Name, r.Name)
			}
		}
	}
	return nil
}

// FleetArrayLabel is the array label of the fleet-wide watchdog's
// metrics, so no array may take it as its name.
const FleetArrayLabel = "fleet"

// ValidateArrayName checks that name is usable as a URL path segment
// and a metric label value: non-empty, letters, digits, '-', '_', '.',
// and not FleetArrayLabel.
func ValidateArrayName(name string) error {
	if name == "" {
		return fmt.Errorf("array name is empty")
	}
	if name == FleetArrayLabel {
		return fmt.Errorf("array name %q is reserved for the fleet-wide alert metrics", name)
	}
	for _, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9',
			r == '-', r == '_', r == '.':
		default:
			return fmt.Errorf("array name %q: invalid character %q", name, r)
		}
	}
	return nil
}
