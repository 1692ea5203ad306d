// The fleet roll-up: per-array metered energy folded into facility
// energy, electricity cost and carbon footprint. The model follows the
// Boavizta/e-footprint shape for storage services: metered device
// joules are scaled by the data-center PUE and the replication factor
// to facility energy; operational carbon is facility kWh times the
// grid intensity; embodied carbon amortizes the fabrication footprint
// of the stored terabytes over the hardware lifespan, prorated to the
// simulated span. All knobs are overridable from the fleet config's
// "cost" section.

package fleet

import (
	"fmt"
	"time"

	"esm/internal/config"
)

// CostModel holds the cost/carbon constants of the roll-up.
type CostModel struct {
	// PUE is the facility power usage effectiveness: total facility
	// power over IT power.
	PUE float64 `json:"pue"`
	// ElectricityUSDPerKWh prices facility energy.
	ElectricityUSDPerKWh float64 `json:"electricity_usd_per_kwh"`
	// GridKgCO2PerKWh is the grid carbon intensity.
	GridKgCO2PerKWh float64 `json:"grid_kgco2_per_kwh"`
	// ReplicationFactor scales one simulated array to the replicas a
	// storage service actually keeps.
	ReplicationFactor float64 `json:"replication_factor"`
	// EmbodiedKgCO2PerTB is the fabrication footprint per stored TB.
	EmbodiedKgCO2PerTB float64 `json:"embodied_kgco2_per_tb"`
	// LifespanYears amortizes the embodied footprint.
	LifespanYears float64 `json:"lifespan_years"`
}

// DefaultCostModel returns the defaults: PUE 1.4 (typical enterprise
// data center), $0.12/kWh, 0.475 kgCO2/kWh (global average grid
// intensity), replication factor 3, 160 kgCO2 per fabricated TB
// amortized over 6 years (Boavizta e-footprint HDD storage defaults).
func DefaultCostModel() CostModel {
	return CostModel{
		PUE:                  1.4,
		ElectricityUSDPerKWh: 0.12,
		GridKgCO2PerKWh:      0.475,
		ReplicationFactor:    3,
		EmbodiedKgCO2PerTB:   160,
		LifespanYears:        6,
	}
}

// ApplyConfig overlays the non-nil fields of c.
func (m CostModel) ApplyConfig(c *config.CostConfig) CostModel {
	if c == nil {
		return m
	}
	if c.PUE != nil {
		m.PUE = *c.PUE
	}
	if c.ElectricityUSDPerKWh != nil {
		m.ElectricityUSDPerKWh = *c.ElectricityUSDPerKWh
	}
	if c.GridKgCO2PerKWh != nil {
		m.GridKgCO2PerKWh = *c.GridKgCO2PerKWh
	}
	if c.ReplicationFactor != nil {
		m.ReplicationFactor = *c.ReplicationFactor
	}
	if c.EmbodiedKgCO2PerTB != nil {
		m.EmbodiedKgCO2PerTB = *c.EmbodiedKgCO2PerTB
	}
	if c.LifespanYears != nil {
		m.LifespanYears = *c.LifespanYears
	}
	return m
}

// Validate rejects physically meaningless constants.
func (m CostModel) Validate() error {
	switch {
	case m.PUE < 1:
		return fmt.Errorf("fleet: cost model: PUE %.3f < 1", m.PUE)
	case m.ElectricityUSDPerKWh < 0:
		return fmt.Errorf("fleet: cost model: negative electricity price")
	case m.GridKgCO2PerKWh < 0:
		return fmt.Errorf("fleet: cost model: negative grid intensity")
	case m.ReplicationFactor < 1:
		return fmt.Errorf("fleet: cost model: replication factor %.3f < 1", m.ReplicationFactor)
	case m.EmbodiedKgCO2PerTB < 0:
		return fmt.Errorf("fleet: cost model: negative embodied carbon")
	case m.LifespanYears <= 0:
		return fmt.Errorf("fleet: cost model: non-positive lifespan")
	}
	return nil
}

// ArrayRollup is one array's line of the roll-up.
type ArrayRollup struct {
	Array string `json:"array"`
	// SpanNS is the simulated span the figures cover.
	SpanNS int64 `json:"span_ns"`
	// MeteredJ is the simulator's metered device energy (enclosures +
	// controller) — the conserved quantity: the fleet total is exactly
	// the sum of these.
	MeteredJ float64 `json:"metered_j"`
	// AvgW is MeteredJ over the span.
	AvgW float64 `json:"avg_w"`
	// FacilityJ and FacilityKWh scale the metered energy by PUE and
	// replication.
	FacilityJ   float64 `json:"facility_j"`
	FacilityKWh float64 `json:"facility_kwh"`
	// CostUSD prices the facility energy.
	CostUSD float64 `json:"cost_usd"`
	// OperationalKgCO2 is facility kWh times grid intensity.
	OperationalKgCO2 float64 `json:"operational_kgco2"`
	// StoredTB is the replicated stored capacity.
	StoredTB float64 `json:"stored_tb"`
	// EmbodiedKgCO2 is the fabrication footprint of the stored TB,
	// amortized over the lifespan and prorated to the span.
	EmbodiedKgCO2 float64 `json:"embodied_kgco2"`
	// TotalKgCO2 is operational plus embodied.
	TotalKgCO2 float64 `json:"total_kgco2"`
	// Records and SpinUps give the line operational context.
	Records int64 `json:"records"`
	SpinUps int   `json:"spin_ups"`
}

// roll computes one array's line.
func (m CostModel) roll(name string, span time.Duration, meteredJ float64, usedBytes, records int64, spinUps int) ArrayRollup {
	r := ArrayRollup{
		Array:    name,
		SpanNS:   int64(span),
		MeteredJ: meteredJ,
		Records:  records,
		SpinUps:  spinUps,
	}
	if sec := span.Seconds(); sec > 0 {
		r.AvgW = meteredJ / sec
	}
	r.FacilityJ = meteredJ * m.PUE * m.ReplicationFactor
	r.FacilityKWh = r.FacilityJ / 3.6e6
	r.CostUSD = r.FacilityKWh * m.ElectricityUSDPerKWh
	r.OperationalKgCO2 = r.FacilityKWh * m.GridKgCO2PerKWh
	r.StoredTB = float64(usedBytes) * m.ReplicationFactor / 1e12
	lifespan := m.LifespanYears * 365.25 * 24 * float64(time.Hour)
	if lifespan > 0 {
		r.EmbodiedKgCO2 = r.StoredTB * m.EmbodiedKgCO2PerTB * (float64(span) / lifespan)
	}
	r.TotalKgCO2 = r.OperationalKgCO2 + r.EmbodiedKgCO2
	return r
}

// Totals is the fleet-wide aggregate of the per-array lines. Every
// energy, cost and carbon field is the plain sum of the array lines
// (the conservation property the control plane's tests pin down);
// SpanNS is the longest array span.
type Totals struct {
	Arrays           int     `json:"arrays"`
	SpanNS           int64   `json:"span_ns"`
	MeteredJ         float64 `json:"metered_j"`
	FacilityJ        float64 `json:"facility_j"`
	FacilityKWh      float64 `json:"facility_kwh"`
	CostUSD          float64 `json:"cost_usd"`
	OperationalKgCO2 float64 `json:"operational_kgco2"`
	StoredTB         float64 `json:"stored_tb"`
	EmbodiedKgCO2    float64 `json:"embodied_kgco2"`
	TotalKgCO2       float64 `json:"total_kgco2"`
	Records          int64   `json:"records"`
	SpinUps          int     `json:"spin_ups"`
}

// signal returns the total the fleet_* watchdog signal name reads.
// The fleet observes every name in obs.FleetSignals through here, so a
// name without a case is a programming error, and panics.
func (t Totals) signal(name string) float64 {
	switch name {
	case "fleet_metered_j":
		return t.MeteredJ
	case "fleet_facility_j":
		return t.FacilityJ
	case "fleet_facility_kwh":
		return t.FacilityKWh
	case "fleet_cost_usd":
		return t.CostUSD
	case "fleet_operational_kgco2":
		return t.OperationalKgCO2
	case "fleet_embodied_kgco2":
		return t.EmbodiedKgCO2
	case "fleet_total_kgco2":
		return t.TotalKgCO2
	case "fleet_stored_tb":
		return t.StoredTB
	case "fleet_records":
		return float64(t.Records)
	case "fleet_spin_ups":
		return float64(t.SpinUps)
	}
	panic("fleet: no roll-up total for signal " + name)
}

func (t *Totals) add(r ArrayRollup) {
	t.Arrays++
	if r.SpanNS > t.SpanNS {
		t.SpanNS = r.SpanNS
	}
	t.MeteredJ += r.MeteredJ
	t.FacilityJ += r.FacilityJ
	t.FacilityKWh += r.FacilityKWh
	t.CostUSD += r.CostUSD
	t.OperationalKgCO2 += r.OperationalKgCO2
	t.StoredTB += r.StoredTB
	t.EmbodiedKgCO2 += r.EmbodiedKgCO2
	t.TotalKgCO2 += r.TotalKgCO2
	t.Records += r.Records
	t.SpinUps += r.SpinUps
}

// Rollup is the /fleet payload: the model in force, one line per
// array (sorted by name), and the fleet totals.
type Rollup struct {
	Cost   CostModel     `json:"cost_model"`
	Arrays []ArrayRollup `json:"arrays"`
	Fleet  Totals        `json:"fleet"`
}
