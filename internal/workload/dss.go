// DSS workload: a TPC-H-like trace matching Table I's configuration
// (SF 100, Q1–Q22 run sequentially, DB hash-distributed over 8
// enclosures, log and work files on 1) and Fig. 6's item pattern mix
// (≈62% P1, ≈38% P2, no P3).
//
// Each query sequentially scans its input tables (all partitions of a
// table in parallel across the enclosures), spills intermediate results
// to its work file (write-heavy, classifying P2), reads part of the
// spill back, and then computes without I/O until the next query. The
// long I/O-free stretches between scans are what gives DSS its large
// power-saving potential — for every method, as in Fig. 14.
package workload

import (
	"fmt"
	"math/rand"
	"time"

	"esm/internal/trace"
)

// dssTable describes one TPC-H table.
type dssTable struct {
	name string
	size int64 // total bytes at SF 100
	wide bool  // partitioned across all DB enclosures
}

var dssTables = []dssTable{
	{name: "lineitem", size: 75 << 30, wide: true},
	{name: "orders", size: 17 << 30, wide: true},
	{name: "partsupp", size: 12 << 30, wide: true},
	{name: "part", size: 2560 << 20, wide: true},
	{name: "customer", size: 2360 << 20, wide: true},
	{name: "supplier", size: 144 << 20, wide: true},
	{name: "nation", size: 1 << 20},
	{name: "region", size: 1 << 20},
}

// dssQueryTables maps each of Q1..Q22 to the tables it scans
// (abbreviations: L lineitem, O orders, PS partsupp, P part, C customer,
// S supplier, N nation, R region), following the TPC-H query set.
var dssQueryTables = [22][]string{
	{"lineitem"}, // Q1
	{"part", "supplier", "partsupp", "nation", "region"},               // Q2
	{"customer", "orders", "lineitem"},                                 // Q3
	{"orders", "lineitem"},                                             // Q4
	{"customer", "orders", "lineitem", "supplier", "nation", "region"}, // Q5
	{"lineitem"}, // Q6
	{"supplier", "lineitem", "orders", "customer", "nation"},                   // Q7
	{"part", "supplier", "lineitem", "orders", "customer", "nation", "region"}, // Q8
	{"part", "supplier", "lineitem", "partsupp", "orders", "nation"},           // Q9
	{"customer", "orders", "lineitem", "nation"},                               // Q10
	{"partsupp", "supplier", "nation"},                                         // Q11
	{"orders", "lineitem"},                                                     // Q12
	{"customer", "orders"},                                                     // Q13
	{"lineitem", "part"},                                                       // Q14
	{"lineitem", "supplier"},                                                   // Q15
	{"partsupp", "part", "supplier"},                                           // Q16
	{"lineitem", "part"},                                                       // Q17
	{"customer", "orders", "lineitem"},                                         // Q18
	{"lineitem", "part"},                                                       // Q19
	{"supplier", "nation", "partsupp", "lineitem", "part"},                     // Q20
	{"supplier", "lineitem", "orders", "nation"},                               // Q21
	{"customer", "orders"},                                                     // Q22
}

// DSSConfig parameterises the DSS generator.
type DSSConfig struct {
	// ScaleFactor is the nominal TPC-H scale (Table I: 100); it scales
	// the table sizes linearly.
	ScaleFactor float64
	// DBEnclosures is the number of enclosures holding the database
	// (Table I: 8); log and work files get one more.
	DBEnclosures int
	// Duration is the trace length (Table I: 6 h).
	Duration time.Duration
	// Seed makes the trace deterministic.
	Seed int64
	// ScanBps is the per-partition sequential scan rate.
	ScanBps float64
	// SpillFrac is the fraction of scanned bytes spilled to work files.
	SpillFrac float64
}

// DefaultDSSConfig returns the paper-scale configuration.
func DefaultDSSConfig() DSSConfig {
	return DSSConfig{
		ScaleFactor:  100,
		DBEnclosures: 8,
		Duration:     6 * time.Hour,
		Seed:         44,
		ScanBps:      40 << 20,
		SpillFrac:    0.18,
	}
}

// Scaled returns the configuration with duration and data volume both
// multiplied by f, so scan phases keep the same proportion of each query
// window in fast runs.
func (c DSSConfig) Scaled(f float64) DSSConfig {
	c.Duration = time.Duration(float64(c.Duration) * f)
	c.ScaleFactor *= f
	return c
}

// Validate reports whether the configuration is usable.
func (c DSSConfig) Validate() error {
	if c.DBEnclosures <= 0 || c.ScaleFactor <= 0 || c.ScanBps <= 0 {
		return fmt.Errorf("workload: dss config must be positive")
	}
	if c.Duration < 10*time.Minute {
		return fmt.Errorf("workload: dss duration %v too short to classify patterns", c.Duration)
	}
	if c.SpillFrac < 0 || c.SpillFrac > 1 {
		return fmt.Errorf("workload: dss SpillFrac out of range")
	}
	return nil
}

// GenerateDSS builds the DSS workload.
func GenerateDSS(cfg DSSConfig) (*Workload, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	cat := trace.NewCatalog()
	w := &Workload{
		Name:       "dss",
		Catalog:    cat,
		ClosedLoop: true,
		Enclosures: cfg.DBEnclosures + 1,
		Duration:   cfg.Duration,
	}
	var ss streams
	var placement []int
	sizeScale := cfg.ScaleFactor / 100

	// Table partitions: wide tables striped over enclosures 1..N; the
	// tiny dimension tables live whole on enclosure 1.
	type part struct {
		id   trace.ItemID
		size int64
		enc  int
	}
	parts := make(map[string][]part)
	for _, tbl := range dssTables {
		size := int64(float64(tbl.size) * sizeScale)
		if !tbl.wide {
			id := cat.Add("tpch/"+tbl.name, size)
			placement = append(placement, 1)
			parts[tbl.name] = []part{{id: id, size: size, enc: 1}}
			continue
		}
		per := size / int64(cfg.DBEnclosures)
		for p := 0; p < cfg.DBEnclosures; p++ {
			id := cat.Add(fmt.Sprintf("tpch/%s.p%d", tbl.name, p), per)
			placement = append(placement, 1+p)
			parts[tbl.name] = append(parts[tbl.name], part{id: id, size: per, enc: 1 + p})
		}
	}

	// Work files (one per query plus shared temp segments) and the log,
	// all on enclosure 0.
	workSize := int64(float64(4<<30) * sizeScale)
	workItems := make([]trace.ItemID, 22)
	for q := range workItems {
		workItems[q] = cat.Add(fmt.Sprintf("tpch/work.q%d", q+1), workSize)
		placement = append(placement, 0)
	}
	tempItems := make([]trace.ItemID, 6)
	for i := range tempItems {
		tempItems[i] = cat.Add(fmt.Sprintf("tpch/temp%d", i), workSize/2)
		placement = append(placement, 0)
	}
	logItem := cat.Add("tpch/log", 2<<30)
	placement = append(placement, 0)

	// Query windows: share of the duration proportional to scanned bytes
	// plus a fixed compute floor.
	weights := make([]float64, 22)
	var wsum float64
	for q, tables := range dssQueryTables {
		var bytes float64
		for _, t := range tables {
			for _, p := range parts[t] {
				bytes += float64(p.size)
			}
		}
		weights[q] = 1 + bytes/(float64(int64(25)<<30)*sizeScale)
		wsum += weights[q]
	}

	const ioSize = 256 << 10
	start := time.Duration(0)
	var logRecs []trace.LogicalRecord
	for q, tables := range dssQueryTables {
		end := start + time.Duration(weights[q]/wsum*float64(cfg.Duration))
		w.Windows = append(w.Windows, Window{Name: fmt.Sprintf("Q%d", q+1), Start: start, End: end})

		t := start
		var scanned int64
		for _, tbl := range tables {
			// All partitions scan in parallel; the phase lasts as long as
			// the largest partition takes.
			var phase time.Duration
			for _, p := range parts[tbl] {
				d := scanStream(&ss, p.id, p.size, t, cfg.ScanBps, ioSize)
				if d > phase {
					phase = d
				}
				scanned += p.size
			}
			t += phase + 5*time.Second
		}

		// Spill phase: write a fraction of the scanned bytes to this
		// query's work file (and a temp segment), then read 60% back.
		spill := int64(float64(scanned) * cfg.SpillFrac)
		if spill > workSize {
			spill = workSize
		}
		t = bulkStream(&ss, rng, workItems[q], workSize, t, spill, cfg.ScanBps, ioSize, trace.OpWrite)
		tmp := tempItems[q%len(tempItems)]
		t = bulkStream(&ss, rng, tmp, workSize/2, t, spill/3, cfg.ScanBps, ioSize, trace.OpWrite)
		bulkStream(&ss, rng, workItems[q], workSize, t, int64(float64(spill)*0.6), cfg.ScanBps, ioSize, trace.OpRead)

		// One query-completion log write.
		logRecs = append(logRecs, trace.LogicalRecord{
			Time: end - time.Second, Item: logItem, Offset: 0, Size: 64 << 10, Op: trace.OpWrite,
		})
		start = end
	}
	ss.fixed(logItem, logRecs)
	w.Placement = placement
	w.Streams = ss.list
	return w, nil
}

// scanStream registers a lazy full sequential scan of the item starting
// at t and returns how long the scan takes at the given rate. The
// records follow entirely from the plan, so nothing is drawn or stored.
func scanStream(ss *streams, id trace.ItemID, size int64, t time.Duration, bps float64, ioSize int32) time.Duration {
	gap := time.Duration(float64(ioSize) / bps * float64(time.Second))
	ss.pure(id, t, func(emit emitFunc) {
		var off int64
		d := time.Duration(0)
		for off < size {
			n := ioSize
			if size-off < int64(n) {
				n = int32(size - off)
			}
			if !emit(t+d, off, n, trace.OpRead) {
				return
			}
			off += int64(n)
			d += gap
		}
	})
	ios := (size + int64(ioSize) - 1) / int64(ioSize)
	return time.Duration(ios) * gap
}

// bulkStream registers total bytes of lazy sequential I/O to the item
// starting at t, beginning at a random aligned offset drawn at planning
// time, and returns the finish time.
func bulkStream(ss *streams, rng *rand.Rand, id trace.ItemID, size int64, t time.Duration, total int64, bps float64, ioSize int32, op trace.Op) time.Duration {
	if total <= 0 {
		return t
	}
	gap := time.Duration(float64(ioSize) / bps * float64(time.Second))
	start := randOffset(rng, size-total, ioSize)
	ss.pure(id, t, func(emit emitFunc) {
		off := start
		tt := t
		var done int64
		for done < total {
			n := ioSize
			if total-done < int64(n) {
				n = int32(total - done)
			}
			if !emit(tt, off, n, op) {
				return
			}
			off = (off + int64(n)) % size
			done += int64(n)
			tt += gap
		}
	})
	ios := (total + int64(ioSize) - 1) / int64(ioSize)
	return t + time.Duration(ios)*gap
}
