// Command esmbench regenerates the paper's evaluation: Fig. 6 (logical
// I/O pattern mixes) and Figs 8–19 (power, response time / derived
// application performance, migrated data and interval analysis for the
// File Server, TPC-C and TPC-H workloads under the proposed method, PDC
// and DDR).
//
// Usage:
//
//	esmbench [-scale f] [-workload fileserver|oltp|dss|cloudblock|all] [-fig N]
//	         [-parallel N] [-json out.json] [-series dir] [-list]
//
// -scale 1.0 reproduces the paper's full durations (hours of simulated
// time; minutes of CPU). The default scale keeps runs under a minute.
// Independent replays run concurrently, -parallel at a time (default
// GOMAXPROCS). Results are byte-identical at any setting; the effective
// worker count and GOMAXPROCS are printed and recorded in the -json
// report so over-asked bounds are visible. -json additionally writes
// every figure's per-policy numbers to a machine-readable file (see
// `make bench-json`). -series attaches a flight recorder to every
// replay and writes, per run, a whole-system time series CSV plus a
// BENCH_<workload>-<policy>.json run manifest into the directory;
// `esmstat diff` compares two manifests with relative regression
// thresholds (the CI gate, see `make bench-smoke`).
package main

import (
	"cmp"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"esm/internal/core"
	"esm/internal/experiments"
	"esm/internal/faults"
	"esm/internal/obs"
	"esm/internal/powermodel"
	"esm/internal/storage"
	"esm/internal/workload"
)

func main() {
	scale := flag.Float64("scale", 0, "time-scale factor (1.0 = paper-scale durations; 0 = per-workload default)")
	kind := flag.String("workload", "all", "fileserver, oltp, dss, cloudblock or all (all = the paper's three)")
	fig := flag.Int("fig", 0, "regenerate a single figure (6, 8..19, 20 = cloudblock); 0 = all")
	list := flag.Bool("list", false, "print Table I / Table II parameters and exit")
	sweep := flag.Bool("sweep", false, "run the sensitivity sweeps instead of the figures")
	extended := flag.Bool("extended", false, "also evaluate the extended baselines (timeout, MAID, write off-loading)")
	events := flag.String("events", "", "write each replay's decision log to a JSONL file here as the replay runs (policy and workload are inserted into the name; attaches a tracer without a trace file so the energy ledger's top items are joined in)")
	tracePath := flag.String("trace", "", "write a Perfetto trace-event file per replay (policy and workload are inserted into the name)")
	seriesDir := flag.String("series", "", "write a flight-recorder series CSV and a BENCH_<workload>-<policy>.json run manifest per replay into this directory")
	parallel := flag.Int("parallel", 0, "max concurrent replays (0 = GOMAXPROCS)")
	jsonPath := flag.String("json", "", "also write per-figure results as JSON to this file")
	faultSpec := flag.String("faults", "", "fault-injection scenario, e.g. seed=42,spinup=0.1,io=0.001,battery=10m:25m (see README)")
	alertSpec := flag.String("alerts", "", "comma-separated watchdog rules evaluated per replay on the flight sampling grid, e.g. budget:total_energy_j>1.5e6:for=30s (see DESIGN.md §16)")
	version := flag.Bool("version", false, "print version and exit")
	flag.Parse()
	if *version {
		fmt.Println(obs.VersionString("esmbench"))
		return
	}

	var alertRules []obs.Rule
	if *alertSpec != "" {
		rules, err := obs.ParseRuleList(*alertSpec)
		if err != nil {
			fmt.Fprintln(os.Stderr, "esmbench: -alerts:", err)
			os.Exit(1)
		}
		alertRules = rules
	}

	var fc *faults.Config
	if *faultSpec != "" {
		c, err := faults.ParseSpec(*faultSpec)
		if err != nil {
			fmt.Fprintln(os.Stderr, "esmbench: -faults:", err)
			os.Exit(1)
		}
		fc = c
	}

	experiments.SetParallelism(*parallel)
	if *list {
		printParameters()
		return
	}
	if *sweep {
		if err := runSweeps(*scale, *kind); err != nil {
			fmt.Fprintln(os.Stderr, "esmbench:", err)
			os.Exit(1)
		}
		return
	}
	if err := run(*scale, *kind, *fig, *extended, *events, *tracePath, *seriesDir, *jsonPath, fc, alertRules); err != nil {
		fmt.Fprintln(os.Stderr, "esmbench:", err)
		os.Exit(1)
	}
}

// runFileFor derives a per-run path from the -events or -trace flag:
// "out.json" becomes "out-fileserver-esm.json".
func runFileFor(path, workload, policy string) string {
	ext := filepath.Ext(path)
	return path[:len(path)-len(ext)] + "-" + workload + "-" + policy + ext
}

// writeSeriesAndManifests writes, for every replay of ev, the flight
// series as <dir>/<workload>-<policy>.series.csv and the run manifest
// as <dir>/BENCH_<workload>-<policy>.json — the pair `esmstat diff`
// compares across runs. A manifest names the run's decision log when
// -events wrote one.
func writeSeriesAndManifests(dir, eventsPath string, scale float64, fc *faults.Config, ev *experiments.Eval) error {
	for i, f := range ev.Policies {
		res := ev.Results[i]
		base := ev.Workload.Name + "-" + f.Name
		seriesFile := base + ".series.csv"
		if s := res.Series; s != nil {
			if err := s.WriteCSVFile(filepath.Join(dir, seriesFile)); err != nil {
				return err
			}
		} else {
			seriesFile = ""
		}
		m := experiments.NewManifest(ev.Workload, f.Name, scale, fc, res)
		m.Date = time.Now().Format("2006-01-02")
		m.SeriesFile = seriesFile
		if eventsPath != "" {
			m.ProvFile = runFileFor(eventsPath, ev.Workload.Name, f.Name)
		}
		if err := m.WriteFile(filepath.Join(dir, "BENCH_"+base+".json")); err != nil {
			return err
		}
	}
	fmt.Printf("   (wrote %d run manifests + series under %s)\n", len(ev.Policies), dir)
	return nil
}

// figsOf maps each application to its figure numbers: the paper's
// figures for its three workloads, plus figure 20 for the cloud-block
// workload this repository adds beyond the paper.
var figsOf = map[experiments.Kind][]int{
	experiments.FileServer: {8, 9, 10, 17},
	experiments.OLTP:       {11, 12, 13, 18},
	experiments.DSS:        {14, 15, 16, 19},
	experiments.CloudBlock: {20},
}

func runSweeps(scale float64, kindFlag string) error {
	kinds := experiments.Kinds()
	if kindFlag != "all" {
		kinds = []experiments.Kind{experiments.Kind(kindFlag)}
	}
	for _, k := range kinds {
		ks := scale
		if ks == 0 {
			ks = experiments.DefaultScale(k)
		}
		w, err := experiments.Build(k, ks, 0)
		if err != nil {
			return err
		}
		fmt.Printf("\n-- %s sweeps: %v --\n", w.Name, w.Duration)
		tables, err := experiments.DefaultSweeps(w)
		if err != nil {
			return err
		}
		for _, t := range tables {
			t.Fprint(os.Stdout)
		}
	}
	return nil
}

func run(scale float64, kindFlag string, fig int, extended bool, eventsPath, tracePath, seriesDir, jsonPath string, fc *faults.Config, alertRules []obs.Rule) error {
	if seriesDir != "" {
		if err := os.MkdirAll(seriesDir, 0o755); err != nil {
			return err
		}
	}
	kinds := experiments.Kinds()
	if kindFlag != "all" {
		kinds = []experiments.Kind{experiments.Kind(kindFlag)}
	}

	var report *experiments.Report
	if jsonPath != "" {
		report = &experiments.Report{
			Date:       time.Now().Format("2006-01-02"),
			Parallel:   experiments.Parallelism(),
			GOMAXPROCS: runtime.GOMAXPROCS(0),
		}
	}

	// Fig. 6 uses only the classifier, not the storage simulator.
	if fig == 0 || fig == 6 {
		mixes := map[experiments.Kind]core.PatternMix{}
		for _, k := range kinds {
			ks := scale
			if ks == 0 {
				ks = 1.0 // classification alone is cheap at paper scale
				if k == experiments.CloudBlock {
					// ... except at 100M records; the mix is stable from a
					// fraction of the trace.
					ks = experiments.DefaultScale(k)
				}
			}
			w, err := experiments.Build(k, ks, 0)
			if err != nil {
				return err
			}
			if mixes[k], err = experiments.PatternMix(w, core.DefaultParams().BreakEven); err != nil {
				return err
			}
		}
		experiments.Fig6Table(mixes).Fprint(os.Stdout)
		if fig == 6 {
			return nil
		}
	}

	for _, k := range kinds {
		want := false
		for _, f := range figsOf[k] {
			if fig == 0 || fig == f {
				want = true
			}
		}
		if !want {
			continue
		}
		ks := scale
		if ks == 0 {
			ks = experiments.DefaultScale(k)
		}
		w, err := experiments.Build(k, ks, 0)
		if err != nil {
			return err
		}
		fmt.Printf("\n-- %s: %d items, %d enclosures, %v --\n",
			w.Name, w.Catalog.Len(), w.Enclosures, w.Duration)
		start := time.Now()
		pols := experiments.PoliciesFor(ks)
		if extended {
			pols = experiments.ExtendedPolicies(ks)
		}
		// Each replay gets its own surfaces. With -events it writes its
		// own decision log, so concurrent replays never interleave
		// lines. The log's energy-attribution join needs a tracer;
		// without -trace one with no trace file keeps the energy
		// ledger. With -trace each replay
		// writes its own Perfetto file: spans of concurrent runs cannot
		// share one trace without colliding tracks. With -series, the
		// series CSV and run manifest are written from the results
		// below. With -alerts, transitions land in the decision log via
		// the run's recorder, and the summary in the run manifest.
		var recorders []*obs.Recorder
		var tracers []*obs.Tracer
		var traceFiles []string
		var eventsErr, traceErr error
		name := w.Name
		telemetryFor := func(policy string) obs.Telemetry {
			var tel obs.Telemetry
			if eventsPath != "" {
				if f, err := os.Create(runFileFor(eventsPath, name, policy)); err != nil {
					eventsErr = cmp.Or(eventsErr, err)
				} else {
					tel.Recorder = obs.New(obs.Options{Log: f, Label: name + "/" + policy})
					recorders = append(recorders, tel.Recorder)
				}
			}
			if tracePath != "" {
				file := runFileFor(tracePath, name, policy)
				if f, err := os.Create(file); err != nil {
					traceErr = cmp.Or(traceErr, err)
				} else {
					tel.Tracer = obs.NewTracer(obs.TracerOptions{Trace: f, Label: name + "/" + policy})
					tracers = append(tracers, tel.Tracer)
					traceFiles = append(traceFiles, file)
				}
			} else if eventsPath != "" {
				tel.Tracer = obs.NewTracer(obs.TracerOptions{})
			}
			if seriesDir != "" {
				tel.Flight = obs.NewFlightRecorder(0)
			}
			tel.Alerts = obs.NewWatchdog(obs.WatchdogOptions{
				Rules:    alertRules,
				Recorder: tel.Recorder,
			})
			return tel
		}
		ev, err := experiments.EvaluateOpts(w, pols, experiments.Observers{Telemetry: telemetryFor, Faults: fc})
		for _, r := range recorders {
			eventsErr = cmp.Or(eventsErr, r.Close())
		}
		for _, t := range tracers {
			if cerr := t.Close(); cerr != nil && err == nil {
				err = cerr
			}
		}
		if eventsErr != nil && err == nil {
			err = fmt.Errorf("-events: %w", eventsErr)
		}
		if traceErr != nil && err == nil {
			err = fmt.Errorf("-trace: %w", traceErr)
		}
		if err != nil {
			return err
		}
		elapsed := time.Since(start)
		fmt.Printf("   (replayed %d policies in %v)\n", len(pols), elapsed.Round(time.Millisecond))
		if len(alertRules) > 0 {
			printAlerts(ev)
		}
		if seriesDir != "" {
			if err := writeSeriesAndManifests(seriesDir, eventsPath, ks, fc, ev); err != nil {
				return err
			}
		}
		if eventsPath != "" {
			fmt.Printf("   (wrote %d decision logs: %s ...)\n", len(recorders), runFileFor(eventsPath, name, pols[0].Name))
		}
		if len(traceFiles) > 0 {
			fmt.Printf("   (wrote %d Perfetto traces: %s ...)\n", len(traceFiles), traceFiles[0])
			experiments.LatencyTable("Traced latency breakdown — "+w.Name, ev).Fprint(os.Stdout)
			experiments.AttributionTable("Traced energy attribution — "+w.Name, ev).Fprint(os.Stdout)
		}
		if fc != nil {
			experiments.FaultTable(fmt.Sprintf("Fault injection (%s) — %s", fc, w.Name), ev).Fprint(os.Stdout)
		}
		if report != nil {
			report.AddEval(ev, ks, elapsed.Seconds())
		}

		switch k {
		case experiments.FileServer:
			maybe(fig, 8, func() {
				experiments.PowerTable("Fig. 8 — File Server power consumption", ev).Fprint(os.Stdout)
				experiments.PowerSeriesChart("File Server power over time", ev).Fprint(os.Stdout)
				experiments.StateMixTable("File Server enclosure state residency", ev).Fprint(os.Stdout)
			})
			maybe(fig, 9, func() {
				experiments.ResponseTable("Fig. 9 — File Server avg I/O response time", ev).Fprint(os.Stdout)
			})
			maybe(fig, 10, func() { experiments.MigrationTable("Fig. 10 — File Server migrated data size", ev).Fprint(os.Stdout) })
			maybe(fig, 17, func() {
				experiments.IntervalTable("Fig. 17 — File Server I/O intervals", ev, experiments.DefaultIntervalThresholds()).Fprint(os.Stdout)
			})
		case experiments.OLTP:
			maybe(fig, 11, func() {
				experiments.PowerTable("Fig. 11 — TPC-C power consumption", ev).Fprint(os.Stdout)
				experiments.PowerSeriesChart("TPC-C power over time", ev).Fprint(os.Stdout)
				experiments.StateMixTable("TPC-C enclosure state residency", ev).Fprint(os.Stdout)
			})
			maybe(fig, 12, func() { experiments.ThroughputTable(ev).Fprint(os.Stdout) })
			maybe(fig, 13, func() { experiments.MigrationTable("Fig. 13 — TPC-C migrated data size", ev).Fprint(os.Stdout) })
			maybe(fig, 18, func() {
				experiments.IntervalTable("Fig. 18 — TPC-C I/O intervals", ev, experiments.DefaultIntervalThresholds()).Fprint(os.Stdout)
			})
		case experiments.DSS:
			maybe(fig, 14, func() {
				experiments.PowerTable("Fig. 14 — TPC-H power consumption", ev).Fprint(os.Stdout)
				experiments.PowerSeriesChart("TPC-H power over time", ev).Fprint(os.Stdout)
				experiments.StateMixTable("TPC-H enclosure state residency", ev).Fprint(os.Stdout)
			})
			maybe(fig, 15, func() { experiments.QueryResponseTable(ev, []string{"Q2", "Q7", "Q21"}).Fprint(os.Stdout) })
			maybe(fig, 16, func() { experiments.MigrationTable("Fig. 16 — TPC-H migrated data size", ev).Fprint(os.Stdout) })
			maybe(fig, 19, func() {
				experiments.IntervalTable("Fig. 19 — TPC-H I/O intervals", ev, experiments.DefaultIntervalThresholds()).Fprint(os.Stdout)
			})
		case experiments.CloudBlock:
			maybe(fig, 20, func() {
				experiments.PowerTable("Fig. 20 — Cloud block storage power consumption", ev).Fprint(os.Stdout)
				experiments.PowerSeriesChart("Cloud block storage power over time", ev).Fprint(os.Stdout)
				experiments.StateMixTable("Cloud block storage enclosure state residency", ev).Fprint(os.Stdout)
				experiments.ResponseTable("Cloud block storage avg I/O response time", ev).Fprint(os.Stdout)
				experiments.MigrationTable("Cloud block storage migrated data size", ev).Fprint(os.Stdout)
			})
		}
	}
	fmt.Printf("\nreplay concurrency: %d effective workers (bound %d, GOMAXPROCS %d)\n",
		experiments.EffectiveParallelism(), experiments.Parallelism(),
		runtime.GOMAXPROCS(0))
	if report != nil {
		report.ParallelEffective = experiments.EffectiveParallelism()
		f, err := os.Create(jsonPath)
		if err != nil {
			return err
		}
		if err := report.Write(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("\nwrote %d figure results to %s\n", len(report.Figures), jsonPath)
	}
	return nil
}

// printAlerts summarizes every replay's end-of-run watchdog state.
func printAlerts(ev *experiments.Eval) {
	fmt.Println("   alerts:")
	for i, f := range ev.Policies {
		res := ev.Results[i]
		fmt.Printf("     %-8s firing %d, fired %d, transitions %d\n",
			f.Name, res.Alerts.Firing, res.Alerts.Fired, res.Alerts.Transitions)
		for _, st := range res.AlertStates {
			fmt.Printf("       %-40s %-8s value %g, threshold %g, fired %d\n",
				st.Spec, st.State, st.Value, st.Threshold, st.Fired)
		}
	}
}

func maybe(fig, want int, f func()) {
	if fig == 0 || fig == want {
		f()
	}
}

func printParameters() {
	p := core.DefaultParams()
	pw := powermodel.DefaultParams()
	sc := storage.DefaultConfig(10)
	fmt.Println("== Table II — parameter values ==")
	fmt.Printf("  break-even time              %v (derived: %v)\n", p.BreakEven, pw.BreakEven().Round(time.Millisecond))
	fmt.Printf("  spin-down time-out           %v\n", sc.SpinDownTimeout)
	fmt.Printf("  max IOPS of disk enclosure   %.0f random / %.0f sequential\n", sc.RandomIOPS, sc.SeqIOPS)
	fmt.Printf("  size of volumes              %.2f TB\n", float64(sc.EnclosureCapacity)/1e12)
	fmt.Printf("  storage cache size           %d MB\n", sc.CacheBytes>>20)
	fmt.Printf("  cache for write delay        %d MB (dirty block rate %.0f%%)\n", sc.WriteDelayCacheBytes>>20, sc.DirtyBlockRate*100)
	fmt.Printf("  cache for preload            %d MB\n", sc.PreloadCacheBytes>>20)
	fmt.Printf("  monitoring coefficient alpha %.1f\n", p.Alpha)
	fmt.Printf("  initial monitoring period    %v\n", p.InitialPeriod)
	fmt.Println("== Table I — application configurations ==")
	fs := workload.DefaultFileServerConfig()
	ol := workload.DefaultOLTPConfig()
	ds := workload.DefaultDSSConfig()
	fmt.Printf("  fileserver: %d volumes on %d enclosures, %v\n", fs.Volumes, fs.Enclosures, fs.Duration)
	fmt.Printf("  oltp:       %d warehouses, DB on %d enclosures + log, %v\n", ol.Warehouses, ol.DBEnclosures, ol.Duration)
	fmt.Printf("  dss:        SF=%.0f, Q1..Q22, DB on %d enclosures + log/work, %v\n", ds.ScaleFactor, ds.DBEnclosures, ds.Duration)
	cb := workload.DefaultCloudBlockConfig()
	fmt.Printf("  cloudblock: %d volumes / %d tenants on %d enclosures, %v (beyond the paper)\n", cb.Volumes, cb.Tenants, cb.Enclosures, cb.Duration)
}
