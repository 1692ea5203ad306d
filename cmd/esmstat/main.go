// Command esmstat inspects a logical trace in any format tracegen writes
// (stream, CSV or NDJSON): it prints the whole-trace summary, the
// logical I/O pattern distribution (the Fig. 6 analysis for an arbitrary
// trace), and the per-pattern top data items.
//
// The events subcommand renders saved decision logs (the JSONL streams
// written by esmd, esmbench and esmreplay -events): a
// determination-by-determination summary plus per-enclosure power-state
// timelines.
//
// The latency and attrib subcommands render the span traces written by
// esmbench -trace and esmd -trace (Perfetto trace-event JSON): the
// per-phase/per-cause latency breakdown and the per-class/per-function
// energy attribution embedded in the file.
//
// The series subcommand summarizes a flight-recorder series CSV
// (esmbench -series / esmd -series), and diff compares two run
// manifests (BENCH_*.json) with relative regression thresholds,
// exiting 1 when a gated signal crosses its threshold — the CI
// regression gate.
//
// The fleet subcommand queries a running esmd control plane (or reads
// a saved /fleet payload) and renders the fleet-wide energy, cost and
// carbon roll-up, exiting 1 if the fleet joules fail to conserve the
// summed per-array meters to the tolerance.
//
// The alerts subcommand renders watchdog alert state — live from a
// control plane's /alerts endpoint or reconstructed from the alert
// transition events of a saved -events log — and exits 1 when any rule
// is firing at the end: the CI gate for energy/SLO budget rules.
//
// The explain subcommand turns the same decision log into a ranked
// root-cause report for a time window or an alert firing in it; diff
// -series time-aligns two flight-series CSVs and locates the first
// divergence window per signal, the input explain wants.
//
// Usage:
//
//	esmstat -trace fs.trace -catalog fs.items [-break-even 52s] [-top 5]
//	esmstat events [-run fileserver/esm] [-since 10m] [-until 1h] events.jsonl
//	esmstat latency run.trace.json
//	esmstat attrib [-top 3] run.trace.json
//	esmstat series [-since 10m] [-until 1h] [-csv] fileserver-esm.series.csv
//	esmstat diff [-energy 0.05] [-resp 0.1] [-alerts 0] baseline.json new.json
//	esmstat diff -series [-tol 1e-9] baseline.series.csv new.series.csv
//	esmstat explain [-alert RULE [-run L] [-window D] | -since D -until D] events.jsonl
//	esmstat fleet [-tol 1e-9] http://localhost:9090
//	esmstat alerts http://localhost:9090
//	esmstat alerts [-run fileserver/esm] events.jsonl
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"time"

	"esm/internal/core"
	"esm/internal/monitor"
	"esm/internal/obs"
	"esm/internal/trace"
)

// subcommandHelp lists every subcommand with a one-line brief, in the
// order usage prints them. The usage test pins this list — adding a
// subcommand without documenting it here fails the build.
var subcommandHelp = []struct{ name, brief string }{
	{"alerts", "render watchdog alert state (live /alerts or a saved -events log); exits 1 if firing"},
	{"attrib", "per-class/per-function energy attribution from a span trace (esmbench -trace)"},
	{"diff", "compare two BENCH manifests; -series locates the first divergence of two series CSVs"},
	{"events", "render a saved decision log (esmbench/esmd/esmreplay -events)"},
	{"explain", "ranked root-cause report over a saved decision log (-events .jsonl)"},
	{"fleet", "fleet energy/cost/carbon roll-up from a control plane URL or saved payload"},
	{"latency", "per-phase/per-cause latency breakdown from a span trace"},
	{"series", "summarize or re-emit a flight-recorder series CSV, optionally windowed"},
}

// usage prints the top-level synopsis and the subcommand table.
func usage(out io.Writer) {
	fmt.Fprintln(out, "usage: esmstat <subcommand> [flags] [args]")
	fmt.Fprintln(out, "       esmstat -trace T -catalog C [-break-even D] [-top N]   (trace analysis)")
	fmt.Fprintln(out, "subcommands:")
	for _, sc := range subcommandHelp {
		fmt.Fprintf(out, "  %-8s %s\n", sc.name, sc.brief)
	}
	fmt.Fprintln(out, "run \"esmstat <subcommand> -h\" for each subcommand's flags")
}

func main() {
	if len(os.Args) > 1 && !strings.HasPrefix(os.Args[1], "-") {
		switch os.Args[1] {
		case "latency", "attrib":
			if err := runSpanCommand(os.Args[1], os.Args[2:]); err != nil {
				fmt.Fprintln(os.Stderr, "esmstat:", err)
				os.Exit(1)
			}
			return
		case "series":
			if err := runSeries(os.Args[2:]); err != nil {
				fmt.Fprintln(os.Stderr, "esmstat:", err)
				os.Exit(1)
			}
			return
		case "events":
			if err := runEventsCommand(os.Args[2:]); err != nil {
				fmt.Fprintln(os.Stderr, "esmstat:", err)
				os.Exit(1)
			}
			return
		case "explain":
			if err := runExplain(os.Stdout, os.Args[2:]); err != nil {
				fmt.Fprintln(os.Stderr, "esmstat:", err)
				os.Exit(1)
			}
			return
		case "diff":
			regressed, err := runDiff(os.Args[2:])
			if err != nil {
				fmt.Fprintln(os.Stderr, "esmstat:", err)
				os.Exit(2)
			}
			if regressed {
				os.Exit(1)
			}
			return
		case "fleet":
			violated, err := runFleet(os.Stdout, os.Args[2:])
			if err != nil {
				fmt.Fprintln(os.Stderr, "esmstat:", err)
				os.Exit(2)
			}
			if violated {
				os.Exit(1)
			}
			return
		case "alerts":
			firing, err := runAlerts(os.Stdout, os.Args[2:])
			if err != nil {
				fmt.Fprintln(os.Stderr, "esmstat:", err)
				os.Exit(2)
			}
			if firing {
				os.Exit(1)
			}
			return
		case "help":
			usage(os.Stdout)
			return
		default:
			fmt.Fprintf(os.Stderr, "esmstat: unknown subcommand %q\n", os.Args[1])
			usage(os.Stderr)
			os.Exit(2)
		}
	}
	tracePath := flag.String("trace", "", "trace path (stream, CSV or NDJSON, as tracegen writes)")
	catalogPath := flag.String("catalog", "", "catalog path")
	breakEven := flag.Duration("break-even", 52*time.Second, "break-even time for Long Intervals")
	top := flag.Int("top", 5, "items to list per pattern")
	version := flag.Bool("version", false, "print version and exit")
	flag.Parse()
	if *version {
		fmt.Println(obs.VersionString("esmstat"))
		return
	}

	if *tracePath == "" || *catalogPath == "" {
		fmt.Fprintln(os.Stderr, "esmstat: -trace and -catalog are required")
		os.Exit(2)
	}
	if err := run(os.Stdout, *tracePath, *catalogPath, *breakEven, *top); err != nil {
		fmt.Fprintln(os.Stderr, "esmstat:", err)
		os.Exit(1)
	}
}

// runEventsCommand renders a saved event log, optionally one run's
// stream within a simulated-time window.
func runEventsCommand(args []string) error {
	fs := flag.NewFlagSet("esmstat events", flag.ExitOnError)
	runLabel := fs.String("run", "", "only render the stream with this run label")
	since, until := addWindowFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("usage: esmstat events [-run LABEL] [-since D] [-until D] <events.jsonl>")
	}
	return runEvents(os.Stdout, fs.Arg(0), *runLabel, *since, *until)
}

// runSpanCommand dispatches the latency/attrib subcommands over a
// Perfetto span-trace file.
func runSpanCommand(cmd string, args []string) error {
	fs := flag.NewFlagSet("esmstat "+cmd, flag.ExitOnError)
	top := fs.Int("top", 3, "items to list per enclosure (attrib only)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("usage: esmstat %s [-top N] <trace.json>", cmd)
	}
	path := fs.Arg(0)
	if cmd == "latency" {
		return runLatency(os.Stdout, path)
	}
	return runAttrib(os.Stdout, path, *top)
}

// run is the trace analysis. The trace, in any format tracegen writes,
// is decoded in one streaming pass that feeds both the summary and the
// application monitor, so memory stays proportional to the catalog.
func run(out io.Writer, tracePath, catalogPath string, breakEven time.Duration, top int) error {
	cf, err := os.Open(catalogPath)
	if err != nil {
		return err
	}
	defer cf.Close()
	cat, err := trace.ReadCatalog(cf)
	if err != nil {
		return err
	}
	src, err := trace.OpenFile(tracePath)
	if err != nil {
		return err
	}
	defer src.Close()
	mon := monitor.NewAppMonitor(cat.Len(), breakEven)
	sum, err := trace.SummarizeSource(trace.TapSource(src, func(rec trace.LogicalRecord) error {
		mon.Record(rec)
		return nil
	}))
	if err != nil {
		return err
	}
	fmt.Fprintln(out, "trace:", sum)

	stats := mon.EndPeriod(sum.End)
	mix := core.MixOf(stats)
	fmt.Fprintf(out, "patterns (break-even %v): %s\n", breakEven, mix)

	byPattern := map[core.Pattern][]monitor.ItemPeriodStats{}
	for _, s := range stats {
		byPattern[core.Classify(s)] = append(byPattern[core.Classify(s)], s)
	}
	for p := core.P0; p <= core.P3; p++ {
		items := byPattern[p]
		sort.Slice(items, func(a, b int) bool { return items[a].Count > items[b].Count })
		fmt.Fprintf(out, "\n%s (%d items):\n", p, len(items))
		for i, s := range items {
			if i >= top {
				break
			}
			fmt.Fprintf(out, "  %-32s %8d I/Os  %5.1f%% reads  %3d long intervals  %6.2f avg IOPS\n",
				cat.Name(s.Item), s.Count, pct(s.Reads, s.Count), s.LongIntervals, s.AvgIOPS)
		}
	}
	return nil
}

func pct(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return 100 * float64(a) / float64(b)
}
