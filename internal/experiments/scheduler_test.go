package experiments

import (
	"io"
	"strings"
	"testing"
	"time"

	"esm/internal/obs"
	"esm/internal/policy"
	"esm/internal/workload"
)

func schedulerWorkload(t *testing.T) *workload.Workload {
	t.Helper()
	cfg := workload.DefaultSyntheticConfig()
	cfg.Duration = 20 * time.Minute
	w, err := workload.GenerateSynthetic(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// renderTables flattens the three headline tables so parallel and serial
// evaluations can be compared byte for byte.
func renderTables(ev *Eval) string {
	var sb strings.Builder
	PowerTable("power", ev).Fprint(&sb)
	ResponseTable("resp", ev).Fprint(&sb)
	MigrationTable("mig", ev).Fprint(&sb)
	return sb.String()
}

// TestParallelEvaluateDeterministic checks the tentpole invariant: a
// parallel evaluation must be byte-identical to a serial one. Every
// replay has its own clock, RNG-free policy state and trace source, so
// concurrency must not leak into the results.
func TestParallelEvaluateDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("replay smoke test")
	}
	w := schedulerWorkload(t)
	pols := PoliciesFor(0.1)

	SetParallelism(1)
	defer SetParallelism(0)
	serial, err := Evaluate(w, pols)
	if err != nil {
		t.Fatal(err)
	}
	SetParallelism(4)
	par, err := Evaluate(w, pols)
	if err != nil {
		t.Fatal(err)
	}

	got, want := renderTables(par), renderTables(serial)
	if got != want {
		t.Fatalf("parallel tables differ from serial:\n--- serial ---\n%s\n--- parallel ---\n%s", want, got)
	}
	for i := range serial.Results {
		s, p := serial.Results[i], par.Results[i]
		if s.AvgEnclosureW != p.AvgEnclosureW || s.EnergyJ != p.EnergyJ ||
			s.Resp.Count() != p.Resp.Count() || s.Storage.MigratedBytes != p.Storage.MigratedBytes {
			t.Fatalf("%s: serial/parallel results diverge", s.PolicyName)
		}
	}
}

// TestSchedulerSharedSink drives concurrent replays that all publish
// telemetry into one shared sink and registry. Run under -race (the CI
// race step does) this verifies the scheduler's isolation contract:
// cross-run sharing is confined to mutex-protected observers.
func TestSchedulerSharedSink(t *testing.T) {
	if testing.Short() {
		t.Skip("replay smoke test")
	}
	w := schedulerWorkload(t)
	sink := obs.NewJSONLSink(io.Discard)
	reg := obs.NewRegistry()

	SetParallelism(4)
	defer SetParallelism(0)
	ev, err := EvaluateOpts(w, PoliciesFor(0.1), Observers{Telemetry: func(string) obs.Telemetry {
		return obs.Telemetry{Recorder: obs.New(obs.Options{Sink: sink, Registry: reg})}
	}})
	if err != nil {
		t.Fatal(err)
	}
	if len(ev.Results) != 4 {
		t.Fatalf("%d results", len(ev.Results))
	}
}

// TestSchedulerErrorLabel checks that a replay failing inside the worker
// pool reports which (workload, policy) run raised it.
func TestSchedulerErrorLabel(t *testing.T) {
	w := schedulerWorkload(t)
	recs := w.EnsureRecords()
	if len(recs) < 2 {
		t.Fatal("workload too small")
	}
	// Corrupt the materialized trace: swap the first two records so the
	// replay's order check trips.
	recs[0], recs[1] = recs[1], recs[0]
	defer func() { recs[0], recs[1] = recs[1], recs[0] }()
	if recs[0].Time == recs[1].Time {
		t.Skip("first two records coincide; swap is not out of order")
	}

	SetParallelism(4)
	defer SetParallelism(0)
	_, err := Evaluate(w, []PolicyFactory{
		{Name: "none", New: Simple(func() policy.Policy { return policy.NoPowerSaving{} })},
	})
	if err == nil {
		t.Fatal("unsorted trace accepted")
	}
	want := w.Name + "/none"
	if !strings.Contains(err.Error(), want) {
		t.Fatalf("error %q does not carry run label %q", err, want)
	}
	if !strings.Contains(err.Error(), "out of order") {
		t.Fatalf("error %q lost the cause", err)
	}
}

// TestSweepBatchesThroughScheduler runs one sweep at parallelism 4 and 1
// and requires identical rows, covering the sweeps.go routing.
func TestSweepBatchesThroughScheduler(t *testing.T) {
	if testing.Short() {
		t.Skip("replay smoke test")
	}
	w := schedulerWorkload(t)

	SetParallelism(1)
	defer SetParallelism(0)
	serial, err := SweepSpinDownTimeout(w, []time.Duration{26 * time.Second, 104 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	SetParallelism(4)
	par, err := SweepSpinDownTimeout(w, []time.Duration{26 * time.Second, 104 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	var a, b strings.Builder
	serial.Fprint(&a)
	par.Fprint(&b)
	if a.String() != b.String() {
		t.Fatalf("sweep differs:\n--- serial ---\n%s\n--- parallel ---\n%s", a.String(), b.String())
	}
}

// TestReportAddEval exercises the bench-json serialization.
func TestReportAddEval(t *testing.T) {
	ev := fakeEval(t)
	rp := &Report{Date: "2026-01-01", Parallel: 4}
	rp.AddEval(ev, 0.5, 1.25)
	if len(rp.Figures) != 2 {
		t.Fatalf("%d figures", len(rp.Figures))
	}
	if rp.Figures[0].Policy != "none" || rp.Figures[1].Policy != "esm" {
		t.Fatalf("figure order %q, %q", rp.Figures[0].Policy, rp.Figures[1].Policy)
	}
	if rp.Figures[0].SavingPct != 0 {
		t.Fatalf("baseline saving %v", rp.Figures[0].SavingPct)
	}
	if rp.Figures[1].SavingPct <= 0 {
		t.Fatalf("esm saving %v", rp.Figures[1].SavingPct)
	}
	if rp.Figures[1].ThroughputTpmC <= rp.Figures[0].ThroughputTpmC {
		t.Fatalf("throughput not derived: %v vs %v", rp.Figures[1].ThroughputTpmC, rp.Figures[0].ThroughputTpmC)
	}
	var sb strings.Builder
	if err := rp.Write(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{`"date": "2026-01-01"`, `"parallel": 4`, `"avg_enclosure_w"`, `"policy": "esm"`} {
		if !strings.Contains(out, want) {
			t.Fatalf("report JSON missing %s:\n%s", want, out)
		}
	}
}
