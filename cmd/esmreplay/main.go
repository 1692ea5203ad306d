// Command esmreplay is the trace replay tool with a power-saving method
// (the simulator's stand-in for the paper's btreplay-based tool, Fig. 7):
// it replays a logical trace generated by tracegen against the simulated
// storage unit under a chosen policy and reports power, response time,
// migration volume and placement-determination counts.
//
// Usage:
//
//	esmreplay -trace fs.trace -catalog fs.items -placement fs.layout \
//	          -policy esm -enclosures 12 [-closed-loop] [-config cfg.json]
//
// The optional JSON config (see internal/config) overrides storage and
// policy parameters; flags override the config's policy name.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"esm/internal/config"
	"esm/internal/metrics"
	"esm/internal/obs"
	"esm/internal/replay"
	"esm/internal/trace"
)

func main() {
	tracePath := flag.String("trace", "", "trace path, binary/stream/CSV format (required)")
	catalogPath := flag.String("catalog", "", "catalog path (required)")
	placementPath := flag.String("placement", "", "initial-placement path (required)")
	policyName := flag.String("policy", "", "none, timeout, esm, pdc, ddr, maid or offload (default: config's policy, else esm)")
	enclosures := flag.Int("enclosures", 0, "enclosure count (0 = infer from placement)")
	closedLoop := flag.Bool("closed-loop", false, "replay each item's stream with queue depth 1")
	configPath := flag.String("config", "", "optional JSON config for storage and policy parameters")
	alertSpec := flag.String("alerts", "", "comma-separated watchdog rules evaluated on the flight sampling grid, e.g. budget:total_energy_j>1.5e6:for=30s (see DESIGN.md §16)")
	provPath := flag.String("provenance", "", "write the decision-provenance ledger (determination features, moves, power/migration/preload/destage context) to this CSV")
	version := flag.Bool("version", false, "print version and exit")
	flag.Parse()
	if *version {
		fmt.Println(obs.VersionString("esmreplay"))
		return
	}

	if *tracePath == "" || *catalogPath == "" || *placementPath == "" {
		fmt.Fprintln(os.Stderr, "esmreplay: -trace, -catalog and -placement are required")
		os.Exit(2)
	}
	if err := run(*tracePath, *catalogPath, *placementPath, *policyName, *configPath, *alertSpec, *provPath, *enclosures, *closedLoop); err != nil {
		fmt.Fprintln(os.Stderr, "esmreplay:", err)
		os.Exit(1)
	}
}

func run(tracePath, catalogPath, placementPath, policyName, configPath, alertSpec, provPath string, enclosures int, closedLoop bool) error {
	cfgFile, err := config.Load(configPath)
	if err != nil {
		return err
	}
	var tel obs.Telemetry
	if alertSpec != "" {
		rules, err := obs.ParseRuleList(alertSpec)
		if err != nil {
			return fmt.Errorf("-alerts: %w", err)
		}
		tel.Alerts = obs.NewWatchdog(obs.WatchdogOptions{Rules: rules})
	}
	if provPath != "" {
		tel.Provenance = obs.NewProvenance(obs.ProvenanceOptions{})
	}
	if policyName != "" {
		if cfgFile.Policy == nil {
			cfgFile.Policy = &config.PolicyConfig{}
		}
		cfgFile.Policy.Name = policyName
	}

	// Pre-scan the trace once, streaming, for the record count and the
	// measurement span; the replay then streams it a second time. The
	// records are never materialized, so trace size is bounded by disk,
	// not memory.
	pre, err := trace.OpenFile(tracePath)
	if err != nil {
		return err
	}
	sum, err := trace.SummarizeSource(pre)
	pre.Close()
	if err != nil {
		return err
	}
	src, err := trace.OpenFile(tracePath)
	if err != nil {
		return err
	}
	defer src.Close()

	cf, err := os.Open(catalogPath)
	if err != nil {
		return err
	}
	defer cf.Close()
	cat, err := trace.ReadCatalog(cf)
	if err != nil {
		return err
	}

	pf, err := os.Open(placementPath)
	if err != nil {
		return err
	}
	defer pf.Close()
	placement, err := trace.ReadPlacement(pf)
	if err != nil {
		return err
	}
	if enclosures == 0 {
		for _, e := range placement {
			if e+1 > enclosures {
				enclosures = e + 1
			}
		}
	}

	pol, err := cfgFile.BuildPolicy()
	if err != nil {
		return err
	}
	storageCfg, err := cfgFile.BuildStorage(enclosures)
	if err != nil {
		return err
	}

	start := time.Now()
	res, err := replay.Execute(replay.Run{
		Catalog:    cat,
		Source:     src,
		Placement:  placement,
		Storage:    storageCfg,
		Policy:     pol,
		Duration:   sum.End,
		ClosedLoop: closedLoop,
		Telemetry:  tel,
	})
	if err != nil {
		return err
	}

	fmt.Printf("replayed %d records over %v (simulated) in %v (wall)\n",
		res.Resp.Count(), res.Span, time.Since(start).Round(time.Millisecond))
	fmt.Printf("policy            %s\n", res.PolicyName)
	fmt.Printf("avg enclosure     %.1f W\n", res.AvgEnclosureW)
	fmt.Printf("avg total         %.1f W\n", res.AvgTotalW)
	fmt.Printf("energy            %.1f kJ\n", res.EnergyJ/1000)
	fmt.Printf("response          %s\n", res.Resp.String())
	fmt.Printf("migrated          %.2f GB in %d migrations (%d skipped)\n",
		float64(res.Storage.MigratedBytes)/(1<<30), res.Storage.Migrations, res.Storage.MigrationsSkipped)
	fmt.Printf("cache             %d hits, %d delayed writes, %.2f GB flushed, %.2f GB preloaded\n",
		res.Storage.CacheHits, res.Storage.DelayedWrites,
		float64(res.Storage.FlushedBytes)/(1<<30), float64(res.Storage.PreloadedBytes)/(1<<30))
	fmt.Printf("determinations    %d\n", res.Determinations)
	fmt.Printf("spin-ups          %d\n", res.SpinUps)
	fmt.Printf("intervals >=52s   %v (cumulative, all enclosures)\n",
		metrics.CumulativeAbove(res.Monitor, 52*time.Second).Round(time.Second))
	if tel.Alerts != nil {
		fmt.Printf("alerts            %d firing, %d fired, %d transitions\n",
			res.Alerts.Firing, res.Alerts.Fired, res.Alerts.Transitions)
		for _, st := range res.AlertStates {
			fmt.Printf("  %-40s %-8s value %g, threshold %g, fired %d\n",
				st.Spec, st.State, st.Value, st.Threshold, st.Fired)
		}
	}
	if tel.Provenance != nil {
		if err := writeProvenance(provPath, res.ProvSeries); err != nil {
			return err
		}
		p := res.Provenance
		fmt.Printf("provenance        %d rows (%d offered, stride %d): %d determinations, %d decisions, %d transitions -> %s\n",
			p.Records, p.Offered, p.Stride, p.Determinations, p.Decisions, p.Transitions, provPath)
	}
	return nil
}

// writeProvenance writes the ledger rows as CSV, the artifact
// `esmstat explain` consumes.
func writeProvenance(path string, s *obs.Series) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := s.WriteCSV(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
