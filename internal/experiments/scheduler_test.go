package experiments

import (
	"io"
	"strings"
	"testing"
	"time"

	"esm/internal/obs"
	"esm/internal/policy"
	"esm/internal/trace"
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
// telemetry into one shared log writer and registry. Run under -race (the CI
// race step does) this verifies the scheduler's isolation contract:
// cross-run sharing is confined to mutex-protected observers.
func TestSchedulerSharedSink(t *testing.T) {
	if testing.Short() {
		t.Skip("replay smoke test")
	}
	w := schedulerWorkload(t)
	reg := obs.NewRegistry()

	SetParallelism(4)
	defer SetParallelism(0)
	ev, err := EvaluateOpts(w, PoliciesFor(0.1), Observers{Telemetry: func(string) obs.Telemetry {
		return obs.Telemetry{Recorder: obs.New(obs.Options{Log: io.Discard, Registry: reg})}
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
// unsortedWorkload is schedulerWorkload corrupted with one hand-built
// item stream that runs backwards in time, so the merge's order check
// trips part-way through the trace.
func unsortedWorkload(t *testing.T) *workload.Workload {
	t.Helper()
	w := schedulerWorkload(t)
	w.Streams = append(w.Streams, trace.ItemStream{
		Item: 0,
		Seq: func(yield func(trace.LogicalRecord) bool) {
			for _, at := range []time.Duration{2 * time.Minute, time.Minute} {
				if !yield(trace.LogicalRecord{Time: at, Item: 0, Size: 4096, Op: trace.OpRead}) {
					return
				}
			}
		},
	})
	return w
}

func TestSchedulerErrorLabel(t *testing.T) {
	w := unsortedWorkload(t)
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

// TestPatternMixSourceError: a trace that fails part-way gives an
// error naming the workload and the cause, not a partial Fig. 6 mix.
func TestPatternMixSourceError(t *testing.T) {
	w := unsortedWorkload(t)
	_, err := PatternMix(w, 52*time.Second)
	if err == nil {
		t.Fatal("unsorted trace classified")
	}
	if !strings.Contains(err.Error(), w.Name) || !strings.Contains(err.Error(), "out of order") {
		t.Fatalf("error %q lacks the workload name or the cause", err)
	}
}

// TestSweepBatchesThroughScheduler runs one sweep at parallelism 4 and 1
// and requires identical rows, covering the sweeps.go routing.
func TestSweepBatchesThroughScheduler(t *testing.T) {
	if testing.Short() {
		t.Skip("replay smoke test")
	}
	w := schedulerWorkload(t)
	recs, err := trace.CollectSource(w.Source())
	if err != nil {
		t.Fatal(err)
	}

	SetParallelism(1)
	defer SetParallelism(0)
	serial, err := sweepSpinDownTimeout(w, recs, []time.Duration{26 * time.Second, 104 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	SetParallelism(4)
	par, err := sweepSpinDownTimeout(w, recs, []time.Duration{26 * time.Second, 104 * time.Second})
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

// TestDefaultSweepsDeterministic runs every sweep and the media
// comparison on a tiny synthetic workload at parallelism 1 and 4: each
// table must have one row per grid value (per policy for the media
// comparison), and the two renders must be identical.
func TestDefaultSweepsDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep smoke test")
	}
	cfg := workload.DefaultSyntheticConfig()
	cfg.Duration = 15 * time.Minute
	cfg.SteadyIOPS = 10
	w, err := workload.GenerateSynthetic(cfg)
	if err != nil {
		t.Fatal(err)
	}
	render := func(parallel int) string {
		t.Helper()
		SetParallelism(parallel)
		tables, err := DefaultSweeps(w)
		if err != nil {
			t.Fatal(err)
		}
		rows := []int{4, 5, 4, 4, 3}
		if len(tables) != len(rows) {
			t.Fatalf("%d tables, want %d", len(tables), len(rows))
		}
		var sb strings.Builder
		for i, tbl := range tables {
			if len(tbl.Rows) != rows[i] {
				t.Fatalf("%q: %d rows, want %d", tbl.Title, len(tbl.Rows), rows[i])
			}
			tbl.Fprint(&sb)
		}
		return sb.String()
	}
	defer SetParallelism(0)
	serial, par := render(1), render(4)
	if serial != par {
		t.Fatalf("sweeps differ:\n--- serial ---\n%s\n--- parallel ---\n%s", serial, par)
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
