// Package esm's root benchmark suite regenerates every table and figure
// of the paper's evaluation (see DESIGN.md §4 for the experiment index):
//
//	BenchmarkFig06PatternMix          — Fig. 6   logical I/O pattern mixes
//	BenchmarkFig08FileServerPower     — Fig. 8   File Server power
//	BenchmarkFig09FileServerResponse  — Fig. 9   File Server response time
//	BenchmarkFig10FileServerMigration — Fig. 10  File Server migrated data
//	BenchmarkFig11TPCCPower           — Fig. 11  TPC-C power
//	BenchmarkFig12TPCCThroughput      — Fig. 12  TPC-C derived tpmC
//	BenchmarkFig13TPCCMigration       — Fig. 13  TPC-C migrated data
//	BenchmarkFig14TPCHPower           — Fig. 14  TPC-H power
//	BenchmarkFig15TPCHQueryResponse   — Fig. 15  TPC-H Q2/Q7/Q21 response
//	BenchmarkFig16TPCHMigration       — Fig. 16  TPC-H migrated data
//	BenchmarkFig17FileServerIntervals — Fig. 17  FS interval analysis
//	BenchmarkFig18TPCCIntervals       — Fig. 18  TPC-C interval analysis
//	BenchmarkFig19TPCHIntervals       — Fig. 19  TPC-H interval analysis
//	BenchmarkTableIIParameters        — Table II parameter audit
//
// The replay of one workload under the four policies is the expensive
// unit of work; the power benchmark of each workload performs it per
// iteration, and the sibling figure benchmarks reuse the cached results
// (their reported metrics are identical either way since replays are
// deterministic). Figures are reported as benchmark metrics; run
// cmd/esmbench for the formatted tables, and -scale 1.0 there for the
// paper-scale durations.
package esm

import (
	"io"
	"sync"
	"testing"
	"time"

	"esm/internal/core"
	"esm/internal/experiments"
	"esm/internal/metrics"
	"esm/internal/obs"
	"esm/internal/powermodel"
	"esm/internal/replay"
	"esm/internal/trace"
)

// benchScale keeps the full suite in the minutes range; experiments at
// -scale 1.0 are esmbench's job.
var benchScale = map[experiments.Kind]float64{
	experiments.FileServer: 0.25,
	experiments.OLTP:       0.35,
	experiments.DSS:        0.25,
}

var (
	evalMu    sync.Mutex
	evalCache = map[experiments.Kind]*experiments.Eval{}
)

func evaluate(b *testing.B, kind experiments.Kind) *experiments.Eval {
	b.Helper()
	evalMu.Lock()
	defer evalMu.Unlock()
	if ev, ok := evalCache[kind]; ok {
		return ev
	}
	ev := runEval(b, kind)
	evalCache[kind] = ev
	return ev
}

func runEval(b *testing.B, kind experiments.Kind) *experiments.Eval {
	b.Helper()
	scale := benchScale[kind]
	w, err := experiments.Build(kind, scale, 0)
	if err != nil {
		b.Fatal(err)
	}
	ev, err := experiments.Evaluate(w, experiments.PoliciesFor(scale))
	if err != nil {
		b.Fatal(err)
	}
	return ev
}

// saving returns the enclosure-power saving of policy name against the
// no-power-saving baseline, in percent.
func saving(b *testing.B, ev *experiments.Eval, name string) float64 {
	b.Helper()
	base := ev.Result("none")
	r := ev.Result(name)
	if base == nil || r == nil || base.AvgEnclosureW == 0 {
		b.Fatalf("missing results for %q", name)
	}
	return (1 - r.AvgEnclosureW/base.AvgEnclosureW) * 100
}

func reportPower(b *testing.B, ev *experiments.Eval) {
	b.ReportMetric(ev.Result("none").AvgEnclosureW, "none_W")
	b.ReportMetric(ev.Result("esm").AvgEnclosureW, "esm_W")
	b.ReportMetric(saving(b, ev, "esm"), "esm_saving_%")
	b.ReportMetric(saving(b, ev, "pdc"), "pdc_saving_%")
	b.ReportMetric(saving(b, ev, "ddr"), "ddr_saving_%")
	b.ReportMetric(float64(ev.Result("esm").Determinations), "esm_determ")
	b.ReportMetric(float64(ev.Result("ddr").Determinations), "ddr_determ")
}

func BenchmarkFig06PatternMix(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, k := range experiments.Kinds() {
			w, err := experiments.Build(k, benchScale[k], 0)
			if err != nil {
				b.Fatal(err)
			}
			m, err := experiments.PatternMix(w, core.DefaultParams().BreakEven)
			if err != nil {
				b.Fatal(err)
			}
			switch k {
			case experiments.FileServer:
				b.ReportMetric(m.Frac(core.P1)*100, "fs_P1_%")
				b.ReportMetric(m.Frac(core.P3)*100, "fs_P3_%")
			case experiments.OLTP:
				b.ReportMetric(m.Frac(core.P3)*100, "oltp_P3_%")
				b.ReportMetric(m.Frac(core.P1)*100, "oltp_P1_%")
			case experiments.DSS:
				b.ReportMetric(m.Frac(core.P1)*100, "dss_P1_%")
				b.ReportMetric(m.Frac(core.P2)*100, "dss_P2_%")
			}
		}
	}
}

func BenchmarkFig08FileServerPower(b *testing.B) {
	var ev *experiments.Eval
	for i := 0; i < b.N; i++ {
		ev = runEval(b, experiments.FileServer)
	}
	evalMu.Lock()
	evalCache[experiments.FileServer] = ev
	evalMu.Unlock()
	reportPower(b, ev)
}

func BenchmarkFig09FileServerResponse(b *testing.B) {
	var ev *experiments.Eval
	for i := 0; i < b.N; i++ {
		ev = evaluate(b, experiments.FileServer)
	}
	b.ReportMetric(float64(ev.Result("none").Resp.Mean().Microseconds())/1000, "none_ms")
	b.ReportMetric(float64(ev.Result("esm").Resp.Mean().Microseconds())/1000, "esm_ms")
	b.ReportMetric(float64(ev.Result("pdc").Resp.Mean().Microseconds())/1000, "pdc_ms")
	b.ReportMetric(float64(ev.Result("ddr").Resp.Mean().Microseconds())/1000, "ddr_ms")
}

func BenchmarkFig10FileServerMigration(b *testing.B) {
	var ev *experiments.Eval
	for i := 0; i < b.N; i++ {
		ev = evaluate(b, experiments.FileServer)
	}
	b.ReportMetric(float64(ev.Result("esm").Storage.MigratedBytes)/(1<<30), "esm_GB")
	b.ReportMetric(float64(ev.Result("pdc").Storage.MigratedBytes)/(1<<30), "pdc_GB")
	b.ReportMetric(float64(ev.Result("ddr").Storage.MigratedBytes)/(1<<30), "ddr_GB")
}

func BenchmarkFig11TPCCPower(b *testing.B) {
	var ev *experiments.Eval
	for i := 0; i < b.N; i++ {
		ev = runEval(b, experiments.OLTP)
	}
	evalMu.Lock()
	evalCache[experiments.OLTP] = ev
	evalMu.Unlock()
	reportPower(b, ev)
}

func BenchmarkFig12TPCCThroughput(b *testing.B) {
	var ev *experiments.Eval
	for i := 0; i < b.N; i++ {
		ev = evaluate(b, experiments.OLTP)
	}
	base := ev.Result("none")
	for _, name := range []string{"esm", "pdc", "ddr"} {
		r := ev.Result(name)
		tpmc := metrics.DerivedThroughput(ev.Workload.BaseThroughput, base.Resp.ReadMean(), r.Resp.ReadMean())
		b.ReportMetric(tpmc, name+"_tpmC")
	}
	b.ReportMetric(ev.Workload.BaseThroughput, "none_tpmC")
}

func BenchmarkFig13TPCCMigration(b *testing.B) {
	var ev *experiments.Eval
	for i := 0; i < b.N; i++ {
		ev = evaluate(b, experiments.OLTP)
	}
	b.ReportMetric(float64(ev.Result("esm").Storage.MigratedBytes)/(1<<30), "esm_GB")
	b.ReportMetric(float64(ev.Result("pdc").Storage.MigratedBytes)/(1<<30), "pdc_GB")
	b.ReportMetric(float64(ev.Result("ddr").Storage.MigratedBytes)/(1<<30), "ddr_GB")
}

func BenchmarkFig14TPCHPower(b *testing.B) {
	var ev *experiments.Eval
	for i := 0; i < b.N; i++ {
		ev = runEval(b, experiments.DSS)
	}
	evalMu.Lock()
	evalCache[experiments.DSS] = ev
	evalMu.Unlock()
	reportPower(b, ev)
}

func BenchmarkFig15TPCHQueryResponse(b *testing.B) {
	var ev *experiments.Eval
	for i := 0; i < b.N; i++ {
		ev = evaluate(b, experiments.DSS)
	}
	base := ev.Result("none")
	baseWin := map[string]time.Duration{}
	for _, wr := range base.Windows {
		baseWin[wr.Name] = wr.ReadSum
	}
	qOrig := map[string]time.Duration{}
	for _, w := range ev.Workload.Windows {
		qOrig[w.Name] = w.End - w.Start
	}
	for _, name := range []string{"esm", "pdc", "ddr"} {
		r := ev.Result(name)
		for _, wr := range r.Windows {
			switch wr.Name {
			case "Q2", "Q7", "Q21":
				q := metrics.DerivedQueryResponse(qOrig[wr.Name], wr.ReadSum, baseWin[wr.Name])
				b.ReportMetric(q.Seconds(), name+"_"+wr.Name+"_s")
			}
		}
	}
}

func BenchmarkFig16TPCHMigration(b *testing.B) {
	var ev *experiments.Eval
	for i := 0; i < b.N; i++ {
		ev = evaluate(b, experiments.DSS)
	}
	b.ReportMetric(float64(ev.Result("esm").Storage.MigratedBytes)/(1<<30), "esm_GB")
	b.ReportMetric(float64(ev.Result("pdc").Storage.MigratedBytes)/(1<<30), "pdc_GB")
	b.ReportMetric(float64(ev.Result("ddr").Storage.MigratedBytes)/(1<<30), "ddr_GB")
}

func reportIntervals(b *testing.B, ev *experiments.Eval) {
	be := core.DefaultParams().BreakEven
	for _, name := range []string{"none", "esm", "pdc", "ddr"} {
		r := ev.Result(name)
		b.ReportMetric(metrics.CumulativeAbove(r.Monitor, be).Hours(), name+"_h")
	}
}

func BenchmarkFig17FileServerIntervals(b *testing.B) {
	var ev *experiments.Eval
	for i := 0; i < b.N; i++ {
		ev = evaluate(b, experiments.FileServer)
	}
	reportIntervals(b, ev)
}

func BenchmarkFig18TPCCIntervals(b *testing.B) {
	var ev *experiments.Eval
	for i := 0; i < b.N; i++ {
		ev = evaluate(b, experiments.OLTP)
	}
	reportIntervals(b, ev)
}

func BenchmarkFig19TPCHIntervals(b *testing.B) {
	var ev *experiments.Eval
	for i := 0; i < b.N; i++ {
		ev = evaluate(b, experiments.DSS)
	}
	reportIntervals(b, ev)
}

// BenchmarkTableIIParameters audits the Table II constants each run; it
// exists so the parameter set appears in every benchmark report.
func BenchmarkTableIIParameters(b *testing.B) {
	for i := 0; i < b.N; i++ {
		p := core.DefaultParams()
		pw := powermodel.DefaultParams()
		if p.BreakEven != 52*time.Second {
			b.Fatal("break-even drifted from Table II")
		}
		if d := pw.BreakEven() - 52*time.Second; d < -time.Second || d > time.Second {
			b.Fatal("derived break-even drifted from Table II")
		}
	}
	b.ReportMetric(core.DefaultParams().BreakEven.Seconds(), "break_even_s")
	b.ReportMetric(core.DefaultParams().Alpha, "alpha")
	b.ReportMetric(core.DefaultParams().InitialPeriod.Seconds(), "init_period_s")
}

// BenchmarkTelemetryOverhead measures the cost of the obs layer on the
// replay hot path. "off" replays with a nil recorder, tracer, flight
// recorder and watchdog — every instrumented call site must reduce to
// one nil check — while "log" adds the decision log (every event and
// decision encoded as JSONL into a discarding writer, plus the
// registry), "tail" the same log with a live tail keeping its latest
// lines (the fleet's composition), "trace" a live per-I/O span tracer (histograms and energy
// ledger, no file), "perfetto" the same tracer writing its Perfetto
// file into a discarding writer, "series" a flight recorder sampling the whole
// system on the power grid, and "alerts" a watchdog evaluating three
// rules on that grid.
// Compare the ns/op figures: the off case must not regress against a
// pre-telemetry baseline.
func BenchmarkTelemetryOverhead(b *testing.B) {
	w, err := experiments.Build(experiments.FileServer, 0.1, 0)
	if err != nil {
		b.Fatal(err)
	}
	// Collected once, outside every timed loop: the variants measure
	// telemetry, not trace generation.
	recs, err := trace.CollectSource(w.Source())
	if err != nil {
		b.Fatal(err)
	}
	replayOnce := func(b *testing.B, tel obs.Telemetry) {
		b.Helper()
		esm, err := core.NewESM(core.DefaultParams())
		if err != nil {
			b.Fatal(err)
		}
		run := replay.Run{
			Catalog:    w.Catalog,
			Source:     trace.NewSliceSource(recs),
			Placement:  w.Placement,
			Storage:    experiments.StorageFor(w),
			Policy:     esm,
			Duration:   w.Duration,
			ClosedLoop: w.ClosedLoop,
			Telemetry:  tel,
		}
		if _, err := replay.Execute(run); err != nil {
			b.Fatal(err)
		}
	}
	b.Run("off", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			replayOnce(b, obs.Telemetry{})
		}
	})
	b.Run("log", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			rec := obs.New(obs.Options{
				Log:      io.Discard,
				Registry: obs.NewRegistry(),
			})
			replayOnce(b, obs.Telemetry{Recorder: rec})
			if err := rec.Close(); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("tail", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			rec := obs.New(obs.Options{
				Log:      io.Discard,
				Tail:     new(obs.Tail),
				Registry: obs.NewRegistry(),
			})
			replayOnce(b, obs.Telemetry{Recorder: rec})
			if err := rec.Close(); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("trace", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			trc := obs.NewTracer(obs.TracerOptions{})
			replayOnce(b, obs.Telemetry{Tracer: trc})
			if err := trc.Close(); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("perfetto", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			trc := obs.NewTracer(obs.TracerOptions{Trace: io.Discard, Label: "bench"})
			replayOnce(b, obs.Telemetry{Tracer: trc})
			if err := trc.Close(); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("series", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			replayOnce(b, obs.Telemetry{Flight: obs.NewFlightRecorder(0)})
		}
	})
	b.Run("alerts", func(b *testing.B) {
		rules, err := obs.ParseRules([]string{
			"budget:total_energy_j>1e6:for=5m",
			"burn:rate(total_energy_j)>50",
			"resp:resp_p95_us>2e5",
		})
		if err != nil {
			b.Fatal(err)
		}
		for i := 0; i < b.N; i++ {
			replayOnce(b, obs.Telemetry{Alerts: obs.NewWatchdog(obs.WatchdogOptions{Rules: rules})})
		}
	})
}

// BenchmarkAblationFileServer quantifies each mechanism's contribution
// on the file-server workload: the full method versus variants with
// data placement, preload, or write delay disabled, plus the plain
// spin-down timeout as the no-intelligence floor (the design-choice
// study DESIGN.md §3 calls out).
func BenchmarkAblationFileServer(b *testing.B) {
	var ev *experiments.Eval
	for i := 0; i < b.N; i++ {
		w, err := experiments.Build(experiments.FileServer, benchScale[experiments.FileServer], 0)
		if err != nil {
			b.Fatal(err)
		}
		ev, err = experiments.Evaluate(w, experiments.AblationPolicies())
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, name := range []string{"timeout", "esm", "esm-nomigrate", "esm-nopreload", "esm-nowdelay"} {
		b.ReportMetric(saving(b, ev, name), name+"_saving_%")
	}
}
