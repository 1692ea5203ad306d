// OLTP workload: a TPC-C-like trace matching Table I's configuration
// (hash-distributed DB over 9 enclosures, log on 1) and Fig. 6's item
// pattern mix (≈76% P3, ≈23% P1).
//
// The transactional tables (stock, customer, order_line, orders,
// new_order, history, district) receive continuous NURand-skewed random
// I/O — every partition classifies P3 — while the master-data tables
// (item, warehouse) are served from the DBMS buffer pool and only see
// occasional burst misses with long gaps, which classifies them P1. The
// log device sees a continuous synchronous write stream (P3).
package workload

import (
	"fmt"
	"math/rand"
	"time"

	"esm/internal/trace"
)

// oltpTable describes one TPC-C table's per-partition behaviour.
type oltpTable struct {
	name     string
	size     int64   // bytes per partition
	iops     float64 // continuous random I/O per partition (P3 tables)
	readFrac float64
	p1       bool // master data: burst-on-miss instead of continuous
}

// oltpTables is the TPC-C schema as laid out in Table I. The continuous
// rates sum to ≈590 IOPS per DB enclosure, which keeps every enclosure
// above DDR's LowTH (225) — the reason the paper's DDR cannot find cold
// enclosures on OLTP — and puts Σ I_it of the P3 items near 5300 IOPS,
// which makes the proposed method provision 8 of the 10 enclosures hot,
// as the paper's modest 15.7% OLTP saving implies.
var oltpTables = []oltpTable{
	{name: "stock", size: 28 << 30, iops: 200, readFrac: 0.55},
	{name: "customer", size: 11 << 30, iops: 120, readFrac: 0.70},
	{name: "order_line", size: 16 << 30, iops: 120, readFrac: 0.25},
	{name: "orders", size: 5 << 30, iops: 60, readFrac: 0.50},
	{name: "new_order", size: 512 << 20, iops: 30, readFrac: 0.35},
	{name: "history", size: 2 << 30, iops: 20, readFrac: 0.0},
	{name: "district", size: 128 << 20, iops: 40, readFrac: 0.45},
	{name: "item", size: 1200 << 20, p1: true, readFrac: 0.97},
	{name: "warehouse", size: 600 << 20, p1: true, readFrac: 0.95},
}

// OLTPConfig parameterises the OLTP generator.
type OLTPConfig struct {
	// Warehouses is the nominal TPC-C scale (Table I: 5000); reported
	// only, the I/O rates are set directly.
	Warehouses int
	// DBEnclosures is the number of enclosures holding the database
	// (Table I: 9); the log gets one more.
	DBEnclosures int
	// Duration is the trace length (Table I: 1.8 h).
	Duration time.Duration
	// Seed makes the trace deterministic.
	Seed int64
	// BaseTpmC is the transaction throughput without power saving; the
	// paper's 8.5% decrease from 1859 tpmC implies this baseline.
	BaseTpmC float64
	// LogIOPS is the continuous log write rate.
	LogIOPS float64
	// RateScale scales every continuous I/O rate, for fast test runs
	// that keep the full duration. 1.0 reproduces the paper-scale rates.
	RateScale float64
}

// DefaultOLTPConfig returns the paper-scale configuration.
func DefaultOLTPConfig() OLTPConfig {
	return OLTPConfig{
		Warehouses:   5000,
		DBEnclosures: 9,
		Duration:     108 * time.Minute,
		Seed:         43,
		BaseTpmC:     1859.5,
		LogIOPS:      250,
		RateScale:    1.0,
	}
}

// Scaled returns the configuration with the duration multiplied by f.
func (c OLTPConfig) Scaled(f float64) OLTPConfig {
	c.Duration = time.Duration(float64(c.Duration) * f)
	return c
}

// Validate reports whether the configuration is usable.
func (c OLTPConfig) Validate() error {
	if c.DBEnclosures <= 0 {
		return fmt.Errorf("workload: oltp needs DB enclosures")
	}
	if c.Duration < 10*time.Minute {
		return fmt.Errorf("workload: oltp duration %v too short to classify patterns", c.Duration)
	}
	if c.RateScale <= 0 {
		return fmt.Errorf("workload: oltp RateScale must be positive")
	}
	return nil
}

// GenerateOLTP builds the OLTP workload.
func GenerateOLTP(cfg OLTPConfig) (*Workload, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	cat := trace.NewCatalog()
	w := &Workload{
		Name:           "oltp",
		Catalog:        cat,
		Enclosures:     cfg.DBEnclosures + 1,
		Duration:       cfg.Duration,
		BaseThroughput: cfg.BaseTpmC,
	}
	var ss streams
	var placement []int

	// Log device on enclosure 0: continuous synchronous writes.
	logItem := cat.Add("tpcc/log", 10<<30)
	placement = append(placement, 0)
	ss.lazy(logItem, 0, rng.Int63(), func(rng *rand.Rand, emit emitFunc) {
		genContinuous(rng, emit, 10<<30, cfg.Duration, cfg.LogIOPS*cfg.RateScale, 0.0, 16<<10)
	})

	// Hash-distributed table partitions on enclosures 1..DBEnclosures.
	for _, tbl := range oltpTables {
		for p := 0; p < cfg.DBEnclosures; p++ {
			enc := 1 + p
			id := cat.Add(fmt.Sprintf("tpcc/%s.p%d", tbl.name, p), tbl.size)
			placement = append(placement, enc)
			if tbl.p1 {
				ss.lazy(id, 0, rng.Int63(), func(rng *rand.Rand, emit emitFunc) {
					genMasterBursts(rng, emit, tbl.size, cfg.Duration, tbl.readFrac)
				})
			} else {
				ss.lazy(id, 0, rng.Int63(), func(rng *rand.Rand, emit emitFunc) {
					genContinuous(rng, emit, tbl.size, cfg.Duration, tbl.iops*cfg.RateScale, tbl.readFrac, 8<<10)
				})
			}
		}
	}
	w.Placement = placement
	w.Streams = ss.list
	return w, nil
}

// genContinuous emits exponential-gap random I/O at the given rate for
// the whole duration. Gaps are clamped below the break-even time so the
// item always classifies P3, matching continuously hit OLTP tables.
func genContinuous(rng *rand.Rand, emit emitFunc, size int64, dur time.Duration, iops, readFrac float64, ioSize int32) {
	if iops <= 0 {
		return
	}
	mean := time.Duration(float64(time.Second) / iops)
	t := expDur(rng, mean)
	for t < dur {
		op := trace.OpRead
		if rng.Float64() >= readFrac {
			op = trace.OpWrite
		}
		if !emit(t, randOffset(rng, size, ioSize), ioSize, op) {
			return
		}
		t += clampDur(expDur(rng, mean), 0, 45*time.Second)
	}
}

// genMasterBursts emits the buffer-pool-miss bursts of the master-data
// tables: every few minutes (always beyond the break-even time) a run of
// a couple dozen reads, which classifies the item P1.
func genMasterBursts(rng *rand.Rand, emit emitFunc, size int64, dur time.Duration, readFrac float64) {
	t := expDur(rng, 4*time.Minute)
	for t < dur {
		n := 10 + rng.Intn(21)
		for i := 0; i < n && t < dur; i++ {
			op := trace.OpRead
			if rng.Float64() >= readFrac {
				op = trace.OpWrite
			}
			if !emit(t, randOffset(rng, size, 8<<10), 8<<10, op) {
				return
			}
			t += expDur(rng, 200*time.Millisecond)
		}
		t += 70*time.Second + expDur(rng, 4*time.Minute)
	}
}
