package experiments

import (
	"slices"
	"strings"
	"testing"
	"time"

	"esm/internal/core"
	"esm/internal/monitor"
	"esm/internal/policy"
	"esm/internal/replay"
	"esm/internal/trace"
	"esm/internal/workload"
)

func TestBuildAllKinds(t *testing.T) {
	for _, k := range Kinds() {
		w, err := Build(k, 0.1, 0)
		if err != nil {
			t.Fatalf("%s: %v", k, err)
		}
		recs, err := trace.CollectSource(w.Source())
		if err != nil || len(recs) == 0 {
			t.Fatalf("%s: %d records (err %v)", k, len(recs), err)
		}
		cfg := StorageFor(w)
		if cfg.Enclosures != w.Enclosures {
			t.Fatalf("%s: storage sized for %d enclosures, workload wants %d", k, cfg.Enclosures, w.Enclosures)
		}
	}
	if _, err := Build(Kind("bogus"), 1, 0); err == nil {
		t.Fatal("unknown kind accepted")
	}
}

// TestBuildSeed: seed 0 keeps each kind's default seed, so passing
// that seed explicitly builds the same trace, and any other seed builds
// a different one. The traces are compared on the first records of
// every item stream.
func TestBuildSeed(t *testing.T) {
	for _, c := range []struct {
		kind  Kind
		scale float64
		seed  int64
	}{
		{FileServer, 0.1, workload.DefaultFileServerConfig().Seed},
		{OLTP, 0.1, workload.DefaultOLTPConfig().Seed},
		{DSS, 0.1, workload.DefaultDSSConfig().Seed},
		{CloudBlock, 0.1, workload.DefaultCloudBlockConfig().Seed},
	} {
		heads := func(seed int64) []trace.LogicalRecord {
			w, err := Build(c.kind, c.scale, seed)
			if err != nil {
				t.Fatalf("%s seed %d: %v", c.kind, seed, err)
			}
			var recs []trace.LogicalRecord
			for _, st := range w.Streams {
				r := st.Open(w.Duration)
				for i := 0; i < 4; i++ {
					if rec, ok := r.Next(); ok {
						recs = append(recs, rec)
					}
				}
				r.Close()
			}
			return recs
		}
		base := heads(0)
		if !slices.Equal(heads(c.seed), base) {
			t.Errorf("%s: the default seed %d builds another trace than seed 0", c.kind, c.seed)
		}
		if slices.Equal(heads(c.seed+1), base) {
			t.Errorf("%s: seed %d builds the default trace", c.kind, c.seed+1)
		}
	}
}

func TestDefaultPoliciesComplete(t *testing.T) {
	names := map[string]bool{}
	for _, f := range DefaultPolicies() {
		names[f.Name] = true
		p, err := f.New()
		if err != nil {
			t.Fatalf("factory %q: %v", f.Name, err)
		}
		if p.Name() != f.Name {
			t.Fatalf("factory %q builds policy %q", f.Name, p.Name())
		}
	}
	for _, want := range []string{"none", "esm", "pdc", "ddr"} {
		if !names[want] {
			t.Fatalf("policy %q missing from the comparison set", want)
		}
	}
}

func TestPoliciesForScalesPDCPeriod(t *testing.T) {
	// At full scale the factory set is unchanged; at reduced scale only
	// PDC's period shrinks.
	if got := PoliciesFor(1.0); len(got) != 4 {
		t.Fatalf("%d policies", len(got))
	}
	scaled := PoliciesFor(0.1)
	for _, f := range scaled {
		p, err := f.New()
		if err != nil {
			t.Fatalf("factory %q: %v", f.Name, err)
		}
		if p.Name() != f.Name {
			t.Fatalf("factory %q builds %q", f.Name, p.Name())
		}
	}
}

func TestEvaluateFileServerSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("replay smoke test")
	}
	w, err := Build(FileServer, 0.1, 0)
	if err != nil {
		t.Fatal(err)
	}
	ev, err := Evaluate(w, PoliciesFor(0.1))
	if err != nil {
		t.Fatal(err)
	}
	base := ev.Result("none")
	esm := ev.Result("esm")
	if base == nil || esm == nil {
		t.Fatal("missing results")
	}
	if esm.AvgEnclosureW >= base.AvgEnclosureW {
		t.Fatalf("ESM %v W did not beat baseline %v W", esm.AvgEnclosureW, base.AvgEnclosureW)
	}
	if ev.Result("nope") != nil {
		t.Fatal("lookup of unknown policy succeeded")
	}

	// Exercise every table formatter.
	var sb strings.Builder
	PowerTable("power", ev).Fprint(&sb)
	ResponseTable("resp", ev).Fprint(&sb)
	MigrationTable("mig", ev).Fprint(&sb)
	IntervalTable("iv", ev, DefaultIntervalThresholds()).Fprint(&sb)
	out := sb.String()
	for _, want := range []string{"power", "resp", "mig", "iv", "esm", "pdc", "ddr", "none"} {
		if !strings.Contains(out, want) {
			t.Fatalf("tables missing %q:\n%s", want, out)
		}
	}
}

func TestPatternMixAndFig6Table(t *testing.T) {
	w, err := Build(OLTP, 0.1, 0)
	if err != nil {
		t.Fatal(err)
	}
	m, err := PatternMix(w, 52*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if m.Total != w.Catalog.Len() {
		t.Fatalf("classified %d of %d items", m.Total, w.Catalog.Len())
	}
	tbl := Fig6Table(map[Kind]core.PatternMix{OLTP: m})
	var sb strings.Builder
	tbl.Fprint(&sb)
	if !strings.Contains(sb.String(), "oltp") {
		t.Fatalf("fig6 table:\n%s", sb.String())
	}
}

func TestDefaultScales(t *testing.T) {
	for _, k := range Kinds() {
		if s := DefaultScale(k); s <= 0 || s > 1 {
			t.Fatalf("%s scale %v", k, s)
		}
	}
}

func TestExtendedPoliciesComplete(t *testing.T) {
	names := map[string]bool{}
	for _, f := range ExtendedPolicies(0.5) {
		names[f.Name] = true
		p, err := f.New()
		if err != nil {
			t.Fatalf("factory %q: %v", f.Name, err)
		}
		if p.Name() != f.Name {
			t.Fatalf("factory %q builds %q", f.Name, p.Name())
		}
	}
	for _, want := range []string{"none", "esm", "pdc", "ddr", "timeout", "maid", "offload"} {
		if !names[want] {
			t.Fatalf("extended set missing %q", want)
		}
	}
}

func TestAblationPoliciesComplete(t *testing.T) {
	names := map[string]bool{}
	for _, f := range AblationPolicies() {
		names[f.Name] = true
		p, err := f.New()
		if err != nil || p == nil {
			t.Fatalf("factory %q built %v (err %v)", f.Name, p, err)
		}
	}
	for _, want := range []string{"none", "timeout", "esm", "esm-nomigrate", "esm-nopreload", "esm-nowdelay"} {
		if !names[want] {
			t.Fatalf("ablation set missing %q", want)
		}
	}
}

func TestSweepsOnSynthetic(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep smoke test")
	}
	cfg := workload.DefaultSyntheticConfig()
	cfg.Duration = 30 * time.Minute
	w, err := workload.GenerateSynthetic(cfg)
	if err != nil {
		t.Fatal(err)
	}
	recs, err := trace.CollectSource(w.Source())
	if err != nil {
		t.Fatal(err)
	}
	cache, err := sweepCacheSizes(w, recs, []int64{64 << 20, 256 << 20})
	if err != nil {
		t.Fatal(err)
	}
	if len(cache.Rows) != 2 {
		t.Fatalf("cache sweep rows %d", len(cache.Rows))
	}
	to, err := sweepSpinDownTimeout(w, recs, []time.Duration{26 * time.Second, 104 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if len(to.Rows) != 2 {
		t.Fatalf("timeout sweep rows %d", len(to.Rows))
	}
	mig, err := sweepMigrationBps(w, recs, []float64{50 << 20, 200 << 20})
	if err != nil {
		t.Fatal(err)
	}
	if len(mig.Rows) != 2 {
		t.Fatalf("migration sweep rows %d", len(mig.Rows))
	}
	al, err := sweepAlpha(w, recs, []float64{1.1, 1.5})
	if err != nil {
		t.Fatal(err)
	}
	if len(al.Rows) != 2 {
		t.Fatalf("alpha sweep rows %d", len(al.Rows))
	}
	var sb strings.Builder
	for _, tbl := range []*Table{cache, to, mig, al} {
		tbl.Fprint(&sb)
	}
	if !strings.Contains(sb.String(), "Sweep") {
		t.Fatal("sweep tables empty")
	}
}

func TestPowerSeriesChart(t *testing.T) {
	if testing.Short() {
		t.Skip("replay smoke test")
	}
	cfg := workload.DefaultSyntheticConfig()
	cfg.Duration = 20 * time.Minute
	w, err := workload.GenerateSynthetic(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ev, err := Evaluate(w, []PolicyFactory{
		{Name: "none", New: Simple(func() policy.Policy { return policy.NoPowerSaving{} })},
		{Name: "timeout", New: Simple(func() policy.Policy { return policy.FixedTimeout{} })},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(ev.Results[0].PowerSeries) == 0 {
		t.Fatal("no power samples recorded")
	}
	var sb strings.Builder
	PowerSeriesChart("chart", ev).Fprint(&sb)
	if !strings.Contains(sb.String(), "none") || !strings.Contains(sb.String(), "timeout") {
		t.Fatalf("chart output:\n%s", sb.String())
	}
}

func TestStateMixTable(t *testing.T) {
	if testing.Short() {
		t.Skip("replay smoke test")
	}
	cfg := workload.DefaultSyntheticConfig()
	cfg.Duration = 20 * time.Minute
	w, err := workload.GenerateSynthetic(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ev, err := Evaluate(w, []PolicyFactory{
		{Name: "none", New: Simple(func() policy.Policy { return policy.NoPowerSaving{} })},
		{Name: "timeout", New: Simple(func() policy.Policy { return policy.FixedTimeout{} })},
	})
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	StateMixTable("mix", ev).Fprint(&sb)
	out := sb.String()
	if !strings.Contains(out, "timeout") {
		t.Fatalf("state mix table:\n%s", out)
	}
	// The residencies of each run must sum to ~100%.
	for _, r := range ev.Results {
		for e, m := range r.StateMix {
			sum := m.Active + m.Idle + m.Off + m.SpinUp
			if sum < 0.99 || sum > 1.01 {
				t.Fatalf("%s enclosure %d residency sums to %v", r.PolicyName, e, sum)
			}
		}
	}
}

// fakeEval builds an Eval from hand-rolled results so the table
// formatters can be exercised without replays.
func fakeEval(t *testing.T) *Eval {
	t.Helper()
	w, err := workload.GenerateSynthetic(workload.SyntheticConfig{
		Enclosures: 2, SteadyItems: 1, SteadyIOPS: 5,
		ItemBytes: 1 << 20, Duration: 15 * time.Minute, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	w.BaseThroughput = 1000
	w.Windows = []workload.Window{{Name: "Q1", Start: 0, End: 5 * time.Minute}}
	mkRes := func(name string, readMean time.Duration) *replay.Result {
		res := &replay.Result{PolicyName: name, Span: w.Duration}
		res.Resp.Add(trace.OpRead, readMean)
		res.Windows = []replay.WindowResult{{Name: "Q1", Reads: 10, ReadSum: 10 * readMean}}
		res.Monitor = monitor.NewStorageMonitor(2)
		res.Monitor.Finish(w.Duration)
		res.StateMix = []replay.StateResidency{{Idle: 1}, {Idle: 1}}
		res.AvgEnclosureW = 100 + readMean.Seconds()
		return res
	}
	return &Eval{
		Workload: w,
		Policies: []PolicyFactory{{Name: "none"}, {Name: "esm"}},
		Results:  []*replay.Result{mkRes("none", 10*time.Millisecond), mkRes("esm", 5*time.Millisecond)},
	}
}

func TestThroughputAndQueryTables(t *testing.T) {
	ev := fakeEval(t)
	var sb strings.Builder
	ThroughputTable(ev).Fprint(&sb)
	out := sb.String()
	if !strings.Contains(out, "2000.0") { // esm halves read response → doubles derived tpmC
		t.Fatalf("throughput table:\n%s", out)
	}
	sb.Reset()
	QueryResponseTable(ev, []string{"Q1"}).Fprint(&sb)
	if !strings.Contains(sb.String(), "2m30s") { // half the ReadSum → half of the 5m window
		t.Fatalf("query table:\n%s", sb.String())
	}
	sb.Reset()
	MigrationTable("m", ev).Fprint(&sb)
	IntervalTable("iv", ev, DefaultIntervalThresholds()).Fprint(&sb)
	StateMixTable("sm", ev).Fprint(&sb)
	PowerTable("p", ev).Fprint(&sb)
	ResponseTable("r", ev).Fprint(&sb)
	PowerSeriesChart("c", ev).Fprint(&sb)
	for _, want := range []string{"m", "iv", "sm", "esm", "none"} {
		if !strings.Contains(sb.String(), want) {
			t.Fatalf("tables missing %q", want)
		}
	}
	// Tables degrade gracefully without a baseline run.
	noBase := &Eval{Workload: ev.Workload, Policies: ev.Policies[1:], Results: ev.Results[1:]}
	sb.Reset()
	ThroughputTable(noBase).Fprint(&sb)
	QueryResponseTable(noBase, []string{"Q1"}).Fprint(&sb)
}

func TestFmtBytes(t *testing.T) {
	cases := map[int64]string{
		512:     "512 B",
		2 << 20: "2.00 MB",
		3 << 30: "3.00 GB",
		5 << 40: "5.00 TB",
	}
	for n, want := range cases {
		if got := fmtBytes(n); got != want {
			t.Fatalf("fmtBytes(%d) = %q, want %q", n, got, want)
		}
	}
}
