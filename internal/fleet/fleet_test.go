package fleet

import (
	"bytes"
	"errors"
	"math"
	"strings"
	"testing"
	"time"

	"esm/internal/config"
	"esm/internal/trace"
)

// fixture builds one deterministic two-item workload: a steadily busy
// item and a periodically bursty one, enough traffic over span for
// determinations and cache activity (the replay test fixture's twin).
func fixture(t *testing.T, span time.Duration) (*trace.Catalog, []int, []trace.LogicalRecord) {
	t.Helper()
	cat := trace.NewCatalog()
	busy := cat.Add("busy", 1<<30)
	burst := cat.Add("burst", 32<<20)
	var recs []trace.LogicalRecord
	for tm := time.Duration(0); tm < span; tm += 2 * time.Second {
		recs = append(recs, trace.LogicalRecord{Time: tm, Item: busy, Offset: int64(tm), Size: 8 << 10, Op: trace.OpRead})
	}
	for start := time.Duration(0); start < span; start += 5 * time.Minute {
		for j := 0; j < 5; j++ {
			recs = append(recs, trace.LogicalRecord{Time: start + time.Duration(j)*300*time.Millisecond, Item: burst, Size: 8 << 10, Op: trace.OpWrite})
		}
	}
	trace.SortLogical(recs)
	return cat, []int{0, 1}, recs
}

func newTestFleet(t *testing.T, names ...string) (*Fleet, []trace.LogicalRecord) {
	t.Helper()
	var specs []ArraySpec
	var recs []trace.LogicalRecord
	for _, name := range names {
		cat, placement, r := fixture(t, 30*time.Minute)
		recs = r
		specs = append(specs, ArraySpec{
			Name:           name,
			Catalog:        cat,
			Placement:      placement,
			SeriesInterval: time.Minute,
		})
	}
	f, err := New(Options{Specs: specs})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Close() })
	return f, recs
}

func feedAll(t *testing.T, a *Array, recs []trace.LogicalRecord) {
	t.Helper()
	for _, rec := range recs {
		if err := a.Feed(rec); err != nil {
			t.Fatal(err)
		}
	}
}

func TestFleetRejectsBadSpecs(t *testing.T) {
	cat, placement, _ := fixture(t, time.Minute)
	good := ArraySpec{Name: "a", Catalog: cat, Placement: placement}
	cases := []struct {
		name string
		opts Options
		frag string
	}{
		{"no arrays", Options{}, "no arrays"},
		{"dup name", Options{Specs: []ArraySpec{good, good}}, "declared twice"},
		{"bad name", Options{Specs: []ArraySpec{{Name: "a/b", Catalog: cat, Placement: placement}}}, "invalid character"},
		{"no catalog", Options{Specs: []ArraySpec{{Name: "a"}}}, "catalog is required"},
		{"short placement", Options{Specs: []ArraySpec{{Name: "a", Catalog: cat, Placement: []int{0}}}}, "placement covers"},
		{"wrong policy", Options{Specs: []ArraySpec{{Name: "a", Catalog: cat, Placement: placement,
			Config: &config.File{Policy: &config.PolicyConfig{Name: "pdc"}}}}}, "not supported"},
		{"bad cost", Options{Specs: []ArraySpec{good}, Cost: CostModel{PUE: 0.5, ElectricityUSDPerKWh: 1,
			GridKgCO2PerKWh: 1, ReplicationFactor: 1, EmbodiedKgCO2PerTB: 1, LifespanYears: 1}}, "PUE"},
	}
	for _, c := range cases {
		_, err := New(c.opts)
		if err == nil || !strings.Contains(err.Error(), c.frag) {
			t.Errorf("%s: error %v, want fragment %q", c.name, err, c.frag)
		}
	}
}

func TestFeedRejectsOutOfOrderAndAfterFinish(t *testing.T) {
	f, _ := newTestFleet(t, "a")
	a := f.Array("a")
	if err := a.Feed(trace.LogicalRecord{Time: time.Second, Item: 0, Size: 1 << 10, Op: trace.OpRead}); err != nil {
		t.Fatal(err)
	}
	if err := a.Feed(trace.LogicalRecord{Time: 0, Item: 0, Size: 1 << 10, Op: trace.OpRead}); err == nil {
		t.Fatal("out-of-order record accepted")
	}
	if err := a.Finish(); err != nil {
		t.Fatal(err)
	}
	if err := a.Finish(); err != nil {
		t.Fatalf("Finish not idempotent: %v", err)
	}
	if err := a.Feed(trace.LogicalRecord{Time: 2 * time.Second, Item: 0, Size: 1 << 10, Op: trace.OpRead}); err == nil {
		t.Fatal("feed after finish accepted")
	}
	if !a.Finished() {
		t.Fatal("array not marked finished")
	}
}

// TestOutOfOrderFeedIsTyped checks that a record older than the
// array's stream position fails with one *trace.OrderError — carrying
// the record index and both times — whether it arrives through Feed or
// in a later NDJSON ingest body.
func TestOutOfOrderFeedIsTyped(t *testing.T) {
	f, recs := newTestFleet(t, "feed", "ndjson")
	at := 10
	stale := recs[at-1]
	stale.Time = recs[at-1].Time - 1
	check := func(path string, err error) {
		t.Helper()
		var oe *trace.OrderError
		if !errors.As(err, &oe) {
			t.Fatalf("%s: got %v (%T), want *trace.OrderError", path, err, err)
		}
		if oe.Record != int64(at) || oe.Prev != recs[at-1].Time || oe.Got != stale.Time {
			t.Fatalf("%s: OrderError %+v, want record %d, %v then %v", path, oe, at, recs[at-1].Time, stale.Time)
		}
	}

	a := f.Array("feed")
	feedAll(t, a, recs[:at])
	check("Feed", a.Feed(stale))

	var body bytes.Buffer
	for i, batch := range [][]trace.LogicalRecord{recs[:at], {stale}} {
		body.Reset()
		w := trace.NewNDJSONWriter(&body)
		for _, rec := range batch {
			if err := w.Append(rec); err != nil {
				t.Fatal(err)
			}
		}
		w.Close()
		n, err := f.Array("ndjson").IngestNDJSON(&body)
		if i == 0 {
			if err != nil || n != int64(at) {
				t.Fatalf("first body: %d records, %v", n, err)
			}
			continue
		}
		check("IngestNDJSON", err)
	}
}

// TestRollupConservation is the control plane's accounting gate: the
// fleet-total metered joules must equal the sum of the per-array
// metered joules to 1e-9 relative, and the per-array metered joules
// must equal each array's own settled status energy exactly.
func TestRollupConservation(t *testing.T) {
	f, recs := newTestFleet(t, "tokyo", "osaka")
	feedAll(t, f.Array("tokyo"), recs)
	// osaka sees a fraction of the traffic so the magnitudes differ.
	feedAll(t, f.Array("osaka"), recs[:len(recs)/7])
	if err := f.FinishAll(); err != nil {
		t.Fatal(err)
	}
	r := f.Rollup()
	if len(r.Arrays) != 2 || r.Arrays[0].Array != "osaka" || r.Arrays[1].Array != "tokyo" {
		t.Fatalf("rollup lines %+v", r.Arrays)
	}
	var sum float64
	for _, line := range r.Arrays {
		if line.MeteredJ <= 0 {
			t.Fatalf("%s metered %v J", line.Array, line.MeteredJ)
		}
		sum += line.MeteredJ
		st := f.Array(line.Array).Status()
		if st.EnergyJ != line.MeteredJ {
			t.Fatalf("%s: status energy %v, rollup %v", line.Array, st.EnergyJ, line.MeteredJ)
		}
	}
	if diff := math.Abs(r.Fleet.MeteredJ - sum); diff > 1e-9*sum {
		t.Fatalf("fleet metered %v J, arrays sum to %v J (diff %v)", r.Fleet.MeteredJ, sum, diff)
	}
	// The derived quantities follow the model arithmetic.
	m := r.Cost
	line := r.Arrays[1]
	if want := line.MeteredJ * m.PUE * m.ReplicationFactor; line.FacilityJ != want {
		t.Fatalf("facility %v J, want %v", line.FacilityJ, want)
	}
	if want := line.FacilityJ / 3.6e6 * m.ElectricityUSDPerKWh; line.CostUSD != want {
		t.Fatalf("cost %v, want %v", line.CostUSD, want)
	}
	if want := line.FacilityKWh * m.GridKgCO2PerKWh; line.OperationalKgCO2 != want {
		t.Fatalf("operational carbon %v, want %v", line.OperationalKgCO2, want)
	}
	if line.StoredTB <= 0 || line.EmbodiedKgCO2 <= 0 {
		t.Fatalf("embodied line %+v", line)
	}
	if line.TotalKgCO2 != line.OperationalKgCO2+line.EmbodiedKgCO2 {
		t.Fatalf("total carbon %v", line.TotalKgCO2)
	}
	if r.Fleet.Records != r.Arrays[0].Records+r.Arrays[1].Records {
		t.Fatalf("fleet records %d", r.Fleet.Records)
	}
}

func TestCostModelApplyConfigAndValidate(t *testing.T) {
	pue, price := 1.1, 0.08
	m := DefaultCostModel().ApplyConfig(&config.CostConfig{PUE: &pue, ElectricityUSDPerKWh: &price})
	if m.PUE != 1.1 || m.ElectricityUSDPerKWh != 0.08 || m.ReplicationFactor != 3 {
		t.Fatalf("applied model %+v", m)
	}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := m
	bad.LifespanYears = 0
	if err := bad.Validate(); err == nil {
		t.Fatal("zero lifespan accepted")
	}
}

// TestPolicyHotSwap: replacing the ESM instance mid-stream keeps the
// array alive — accumulated energy and counters survive, the new
// instance starts a fresh monitoring period, and feeding continues.
func TestPolicyHotSwap(t *testing.T) {
	f, recs := newTestFleet(t, "a")
	a := f.Array("a")
	half := len(recs) / 2
	feedAll(t, a, recs[:half])
	a.RefreshStatus()
	before := a.Status()
	if before.Records != int64(half) {
		t.Fatalf("fed %d records, status says %d", half, before.Records)
	}

	alpha := 1.5
	period := config.Duration(2 * time.Minute)
	cfg := &config.File{Policy: &config.PolicyConfig{
		Name: "esm", Alpha: &alpha, InitialPeriod: &period,
	}}
	if err := a.SwapPolicy(cfg); err != nil {
		t.Fatal(err)
	}
	st := a.Status()
	if st.PolicySwaps != 1 {
		t.Fatalf("swaps %d", st.PolicySwaps)
	}
	if st.PeriodNS != int64(2*time.Minute) {
		t.Fatalf("period after swap %v", time.Duration(st.PeriodNS))
	}
	if st.Determinations != 0 {
		t.Fatalf("new instance starts with %d determinations", st.Determinations)
	}

	feedAll(t, a, recs[half:])
	if err := a.Finish(); err != nil {
		t.Fatal(err)
	}
	final := a.Status()
	if final.Records != int64(len(recs)) {
		t.Fatalf("records %d, want %d", final.Records, len(recs))
	}
	if final.EnergyJ <= before.EnergyJ {
		t.Fatalf("energy did not keep accumulating across the swap: %v then %v", before.EnergyJ, final.EnergyJ)
	}
	if final.Determinations == 0 {
		t.Fatal("swapped-in policy never ran the management function")
	}

	// Swapping a finalized array or to a foreign policy fails.
	if err := a.SwapPolicy(cfg); err == nil {
		t.Fatal("swap after finish accepted")
	}
	b := f.Array("a")
	if err := b.SwapPolicy(&config.File{Policy: &config.PolicyConfig{Name: "none"}}); err == nil {
		t.Fatal("non-esm swap accepted")
	}
}

// TestSharedRegistryNamespacing: a fleet's arrays share one registry,
// every instrument carries the array label, and the exposition stays
// deterministic across scrapes.
func TestSharedRegistryNamespacing(t *testing.T) {
	f, recs := newTestFleet(t, "tokyo", "osaka")
	feedAll(t, f.Array("tokyo"), recs[:200])
	feedAll(t, f.Array("osaka"), recs[:100])
	var buf bytes.Buffer
	if err := f.Registry().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	for _, want := range []string{
		`esm_physical_reads_total{array="osaka"}`,
		`esm_physical_reads_total{array="tokyo"}`,
		`esm_monitoring_period_seconds{array="osaka"}`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition lacks %s", want)
		}
	}
	// Sample lines (not HELP/TYPE headers) must all carry the label.
	if strings.Contains(text, "\nesm_physical_reads_total ") {
		t.Error("exposition has an un-namespaced series")
	}
	var buf2 bytes.Buffer
	if err := f.Registry().WritePrometheus(&buf2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Error("consecutive scrapes differ")
	}
}

// TestStatusLiveness: the snapshot exposes the ingest counters and the
// flight recorder's progress (the "is it actually moving" satellite).
func TestStatusLiveness(t *testing.T) {
	f, recs := newTestFleet(t, "a")
	a := f.Array("a")
	var buf bytes.Buffer
	w := trace.NewNDJSONWriter(&buf)
	for _, rec := range recs {
		if err := w.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	w.Close()
	n, err := a.IngestNDJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(len(recs)) {
		t.Fatalf("ingested %d of %d", n, len(recs))
	}
	st := a.Status()
	if st.IngestRequests != 1 || st.IngestRecords != int64(len(recs)) {
		t.Fatalf("ingest counters %d/%d", st.IngestRequests, st.IngestRecords)
	}
	if st.SeriesSamples < 2 {
		t.Fatalf("series samples %d", st.SeriesSamples)
	}
	if st.SeriesLastTNS <= 0 {
		t.Fatalf("series last t %d", st.SeriesLastTNS)
	}
	if st.TimeNS <= 0 || st.Records != int64(len(recs)) {
		t.Fatalf("snapshot %+v", st)
	}
}

func TestIngestFormatsAgree(t *testing.T) {
	f, recs := newTestFleet(t, "nd", "csv", "bin")
	recs = recs[:500]

	var nd bytes.Buffer
	w := trace.NewNDJSONWriter(&nd)
	for _, rec := range recs {
		if err := w.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	w.Close()
	if _, err := f.Array("nd").IngestNDJSON(&nd); err != nil {
		t.Fatal(err)
	}

	var csv bytes.Buffer
	if err := trace.WriteCSV(&csv, recs); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Array("csv").IngestCSV(&csv); err != nil {
		t.Fatal(err)
	}

	var bin bytes.Buffer
	sw := trace.NewStreamWriter(&bin)
	for _, rec := range recs {
		if err := sw.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := sw.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Array("bin").IngestStream(&bin); err != nil {
		t.Fatal(err)
	}

	if err := f.FinishAll(); err != nil {
		t.Fatal(err)
	}
	ndSt, csvSt, binSt := f.Array("nd").Status(), f.Array("csv").Status(), f.Array("bin").Status()
	if ndSt.Records != csvSt.Records || ndSt.Records != binSt.Records {
		t.Fatalf("record counts diverge: %d/%d/%d", ndSt.Records, csvSt.Records, binSt.Records)
	}
	if ndSt.EnergyJ != csvSt.EnergyJ || ndSt.EnergyJ != binSt.EnergyJ {
		t.Fatalf("energy diverges across wire formats: %v/%v/%v", ndSt.EnergyJ, csvSt.EnergyJ, binSt.EnergyJ)
	}
}
