package workload

import (
	"testing"
	"time"

	"esm/internal/core"
	"esm/internal/monitor"
	"esm/internal/trace"
)

const breakEven = 52 * time.Second

// classify runs the full-trace pattern classification used by Fig. 6,
// consuming the workload as a stream so no test materializes a
// paper-scale trace just to count patterns.
func classify(t *testing.T, w *Workload) core.PatternMix {
	t.Helper()
	mon := monitor.NewAppMonitor(w.Catalog.Len(), breakEven)
	src := w.Source()
	for {
		rec, ok := src.Next()
		if !ok {
			break
		}
		mon.Record(rec)
	}
	if err := src.Err(); err != nil {
		t.Fatal(err)
	}
	return core.MixOf(mon.EndPeriod(w.Duration))
}

// checkBasics validates structural invariants shared by every workload.
// records collects w's whole trace.
func records(t *testing.T, w *Workload) []trace.LogicalRecord {
	t.Helper()
	recs, err := trace.CollectSource(w.Source())
	if err != nil {
		t.Fatal(err)
	}
	return recs
}

func checkBasics(t *testing.T, w *Workload) {
	t.Helper()
	if len(w.Placement) != w.Catalog.Len() {
		t.Fatalf("placement covers %d of %d items", len(w.Placement), w.Catalog.Len())
	}
	for i, e := range w.Placement {
		if e < 0 || e >= w.Enclosures {
			t.Fatalf("item %d placed on enclosure %d of %d", i, e, w.Enclosures)
		}
	}
	var prev time.Duration
	for i, rec := range records(t, w) {
		if rec.Time < prev {
			t.Fatalf("record %d out of order", i)
		}
		prev = rec.Time
		if rec.Time > w.Duration {
			t.Fatalf("record %d beyond duration", i)
		}
		if rec.Item < 0 || int(rec.Item) >= w.Catalog.Len() {
			t.Fatalf("record %d references unknown item %d", i, rec.Item)
		}
		if rec.Size <= 0 {
			t.Fatalf("record %d has size %d", i, rec.Size)
		}
		if rec.Offset < 0 || rec.Offset+int64(rec.Size) > w.Catalog.Size(rec.Item) {
			t.Fatalf("record %d overruns item: off=%d size=%d itemSize=%d",
				i, rec.Offset, rec.Size, w.Catalog.Size(rec.Item))
		}
	}
}

func TestFileServerShape(t *testing.T) {
	w, err := GenerateFileServer(DefaultFileServerConfig().Scaled(0.25))
	if err != nil {
		t.Fatal(err)
	}
	checkBasics(t, w)
	if w.Enclosures != 12 {
		t.Fatalf("enclosures %d, Table I says 12", w.Enclosures)
	}
	if !w.ClosedLoop {
		t.Fatal("file-server sessions should replay closed-loop")
	}
	if w.Catalog.Len() != 36*50 {
		t.Fatalf("items %d, want 1800", w.Catalog.Len())
	}
}

func TestFileServerPatternMixMatchesFig6(t *testing.T) {
	w, err := GenerateFileServer(DefaultFileServerConfig())
	if err != nil {
		t.Fatal(err)
	}
	m := classify(t, w)
	// Fig. 6: ≈89.6% P1, ≈9.9% P3, almost no P2, no P0.
	if f := m.Frac(core.P1); f < 0.80 || f > 0.95 {
		t.Fatalf("P1 fraction %.3f outside the Fig. 6 band", f)
	}
	if f := m.Frac(core.P3); f < 0.05 || f > 0.15 {
		t.Fatalf("P3 fraction %.3f outside the Fig. 6 band", f)
	}
	if f := m.Frac(core.P0); f > 0.05 {
		t.Fatalf("P0 fraction %.3f too high", f)
	}
	if f := m.Frac(core.P2); f > 0.03 {
		t.Fatalf("P2 fraction %.3f too high", f)
	}
}

func TestFileServerDeterministic(t *testing.T) {
	cfg := DefaultFileServerConfig().Scaled(0.1)
	a, err := GenerateFileServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := GenerateFileServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ra, rb := records(t, a), records(t, b)
	if len(ra) != len(rb) {
		t.Fatalf("lengths differ: %d vs %d", len(ra), len(rb))
	}
	for i := range ra {
		if ra[i] != rb[i] {
			t.Fatalf("record %d differs", i)
		}
	}
	cfg.Seed++
	c, err := GenerateFileServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rc := records(t, c)
	same := len(rc) == len(ra)
	if same {
		for i := range ra {
			if ra[i] != rc[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatal("different seeds produced identical traces")
	}
}

func TestFileServerValidation(t *testing.T) {
	cfg := DefaultFileServerConfig()
	cfg.Duration = time.Minute
	if _, err := GenerateFileServer(cfg); err == nil {
		t.Fatal("too-short duration accepted")
	}
	cfg = DefaultFileServerConfig()
	cfg.Volumes = 0
	if _, err := GenerateFileServer(cfg); err == nil {
		t.Fatal("zero volumes accepted")
	}
}

func TestOLTPShape(t *testing.T) {
	w, err := GenerateOLTP(DefaultOLTPConfig().Scaled(0.1))
	if err != nil {
		t.Fatal(err)
	}
	checkBasics(t, w)
	if w.Enclosures != 10 {
		t.Fatalf("enclosures %d, Table I says 9 DB + 1 log", w.Enclosures)
	}
	if w.ClosedLoop {
		t.Fatal("OLTP should replay open-loop (many concurrent threads)")
	}
	if w.Catalog.Len() != 82 {
		t.Fatalf("items %d, want 82 (9 tables × 9 partitions + log)", w.Catalog.Len())
	}
	if w.BaseThroughput <= 0 {
		t.Fatal("missing baseline tpmC")
	}
	// The log lives alone on enclosure 0.
	logID, ok := itemNamed(w.Catalog, "tpcc/log")
	if !ok || w.Placement[logID] != 0 {
		t.Fatal("log not placed on enclosure 0")
	}
}

func TestOLTPPatternMixMatchesFig6(t *testing.T) {
	w, err := GenerateOLTP(DefaultOLTPConfig().Scaled(0.2))
	if err != nil {
		t.Fatal(err)
	}
	m := classify(t, w)
	// Fig. 6: ≈76.2% P3, ≈23.3% P1, no P0/P2.
	if f := m.Frac(core.P3); f < 0.70 || f > 0.85 {
		t.Fatalf("P3 fraction %.3f outside the Fig. 6 band", f)
	}
	if f := m.Frac(core.P1); f < 0.15 || f > 0.30 {
		t.Fatalf("P1 fraction %.3f outside the Fig. 6 band", f)
	}
	if f := m.Frac(core.P0) + m.Frac(core.P2); f > 0.05 {
		t.Fatalf("P0+P2 fraction %.3f too high", f)
	}
}

func TestOLTPLoadLevel(t *testing.T) {
	w, err := GenerateOLTP(DefaultOLTPConfig().Scaled(0.1))
	if err != nil {
		t.Fatal(err)
	}
	// Aggregate IOPS must exceed DDR's LowTH on every DB enclosure — the
	// paper's reason DDR cannot find cold enclosures on OLTP.
	perEnc := make([]float64, w.Enclosures)
	for _, rec := range records(t, w) {
		perEnc[w.Placement[rec.Item]]++
	}
	secs := w.Duration.Seconds()
	for e, n := range perEnc {
		if iops := n / secs; iops < 225 {
			t.Fatalf("enclosure %d at %.0f IOPS, below DDR LowTH", e, iops)
		}
	}
}

func TestDSSShape(t *testing.T) {
	w, err := GenerateDSS(DefaultDSSConfig().Scaled(0.2))
	if err != nil {
		t.Fatal(err)
	}
	checkBasics(t, w)
	if w.Enclosures != 9 {
		t.Fatalf("enclosures %d, Table I says 8 DB + 1 log/work", w.Enclosures)
	}
	if !w.ClosedLoop {
		t.Fatal("DSS scans should replay closed-loop")
	}
	if len(w.Windows) != 22 {
		t.Fatalf("%d query windows, want 22", len(w.Windows))
	}
	prev := time.Duration(0)
	for q, win := range w.Windows {
		if win.Start != prev {
			t.Fatalf("Q%d starts at %v, want %v (queries run sequentially)", q+1, win.Start, prev)
		}
		if win.End <= win.Start {
			t.Fatalf("Q%d has empty window", q+1)
		}
		prev = win.End
	}
}

func TestDSSPatternMixMatchesFig6(t *testing.T) {
	w, err := GenerateDSS(DefaultDSSConfig().Scaled(0.35))
	if err != nil {
		t.Fatal(err)
	}
	m := classify(t, w)
	// Fig. 6: ≈61.5% P1, ≈38.5% P2, no P3, no P0.
	if f := m.Frac(core.P1); f < 0.50 || f > 0.75 {
		t.Fatalf("P1 fraction %.3f outside the Fig. 6 band", f)
	}
	if f := m.Frac(core.P2); f < 0.25 || f > 0.50 {
		t.Fatalf("P2 fraction %.3f outside the Fig. 6 band", f)
	}
	if m.Counts[core.P3] != 0 {
		t.Fatalf("%d P3 items; the paper found none for TPC-H", m.Counts[core.P3])
	}
}

func TestDSSScansAreSequential(t *testing.T) {
	w, err := GenerateDSS(DefaultDSSConfig().Scaled(0.1))
	if err != nil {
		t.Fatal(err)
	}
	// Within one lineitem partition, read offsets during a scan must be
	// non-decreasing until the scan wraps (work items may wrap).
	id, ok := itemNamed(w.Catalog, "tpch/lineitem.p0")
	if !ok {
		t.Fatal("lineitem.p0 missing")
	}
	var lastOff int64 = -1
	drops := 0
	for _, rec := range records(t, w) {
		if rec.Item != id {
			continue
		}
		if rec.Offset < lastOff {
			drops++
		}
		lastOff = rec.Offset
	}
	// One wrap per scan is allowed; Q1..Q22 scan lineitem ~13 times.
	if drops > 25 {
		t.Fatalf("%d offset drops in a sequential scan stream", drops)
	}
}

func TestSyntheticMix(t *testing.T) {
	w, err := GenerateSynthetic(DefaultSyntheticConfig())
	if err != nil {
		t.Fatal(err)
	}
	checkBasics(t, w)
	m := classify(t, w)
	cfg := DefaultSyntheticConfig()
	if m.Counts[core.P3] != cfg.SteadyItems {
		t.Fatalf("P3 count %d, want %d", m.Counts[core.P3], cfg.SteadyItems)
	}
	if m.Counts[core.P0] != cfg.IdleItems {
		t.Fatalf("P0 count %d, want %d", m.Counts[core.P0], cfg.IdleItems)
	}
	if got := m.Counts[core.P1] + m.Counts[core.P2]; got != cfg.BurstItems {
		t.Fatalf("P1+P2 count %d, want %d", got, cfg.BurstItems)
	}
}

func TestSyntheticValidation(t *testing.T) {
	cfg := DefaultSyntheticConfig()
	cfg.Enclosures = 0
	if _, err := GenerateSynthetic(cfg); err == nil {
		t.Fatal("invalid config accepted")
	}
}

func TestScaledConfigs(t *testing.T) {
	fs := DefaultFileServerConfig().Scaled(0.5)
	if fs.Duration != 3*time.Hour {
		t.Fatalf("scaled FS duration %v", fs.Duration)
	}
	ol := DefaultOLTPConfig().Scaled(0.5)
	if ol.Duration != 54*time.Minute {
		t.Fatalf("scaled OLTP duration %v", ol.Duration)
	}
	ds := DefaultDSSConfig().Scaled(0.5)
	if ds.Duration != 3*time.Hour || ds.ScaleFactor != 50 {
		t.Fatalf("scaled DSS %v SF=%v", ds.Duration, ds.ScaleFactor)
	}
}

func TestSensorArchiveShape(t *testing.T) {
	w, err := GenerateSensorArchive(DefaultSensorConfig())
	if err != nil {
		t.Fatal(err)
	}
	checkBasics(t, w)
	if !w.ClosedLoop {
		t.Fatal("archive streams should replay closed-loop")
	}
	m := classify(t, w)
	cfg := DefaultSensorConfig()
	// The active segments are the only P3 items.
	if m.Counts[core.P3] != cfg.Streams {
		t.Fatalf("P3 count %d, want %d active segments", m.Counts[core.P3], cfg.Streams)
	}
	// Deep archive dominates P0.
	if f := m.Frac(core.P0); f < 0.5 {
		t.Fatalf("P0 fraction %.2f, archive should be mostly untouched", f)
	}
	// Analytics inputs classify P1, compaction targets P2.
	if m.Counts[core.P1] == 0 || m.Counts[core.P2] == 0 {
		t.Fatalf("mix %s lacks P1 or P2", m)
	}
}

func TestSensorArchiveValidation(t *testing.T) {
	cfg := DefaultSensorConfig()
	cfg.ArchiveFrac = 1.0
	if _, err := GenerateSensorArchive(cfg); err == nil {
		t.Fatal("ArchiveFrac 1.0 accepted")
	}
	cfg = DefaultSensorConfig()
	cfg.Duration = time.Minute
	if _, err := GenerateSensorArchive(cfg); err == nil {
		t.Fatal("too-short duration accepted")
	}
}

func TestOLTPRateScale(t *testing.T) {
	cfg := DefaultOLTPConfig().Scaled(0.1)
	cfg.RateScale = 0.5
	half, err := GenerateOLTP(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.RateScale = 1.0
	full, err := GenerateOLTP(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ratio := float64(len(records(t, half))) / float64(len(records(t, full)))
	if ratio < 0.4 || ratio > 0.6 {
		t.Fatalf("RateScale 0.5 produced %.2f of the records", ratio)
	}
	cfg.RateScale = 0
	if _, err := GenerateOLTP(cfg); err == nil {
		t.Fatal("zero RateScale accepted")
	}
}

// itemNamed returns the ID of the catalog item called name.
func itemNamed(c *trace.Catalog, name string) (trace.ItemID, bool) {
	for _, id := range c.IDs() {
		if c.Name(id) == name {
			return id, true
		}
	}
	return 0, false
}
