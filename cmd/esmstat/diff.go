// The diff subcommand: compare two run manifests (BENCH_*.json written
// by esmbench -series) signal by signal with relative thresholds. This
// is the regression gate — CI diffs a fresh run against a committed
// baseline and fails the build when a gated signal crosses its
// threshold.
//
// With -series the two arguments are flight-series CSVs instead: the
// runs are time-aligned on their shared sample grid and the first
// divergence window of every signal is located — the window `esmstat
// explain` wants handed to it.

package main

import (
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"strings"
	"time"

	"esm/internal/experiments"
	"esm/internal/obs"
)

// runDiff compares baseline and new manifests; the returned bool is
// true when any gated signal regressed (the caller exits non-zero).
func runDiff(args []string) (bool, error) {
	fs := flag.NewFlagSet("esmstat diff", flag.ExitOnError)
	def := experiments.DefaultDiffThresholds()
	energy := fs.Float64("energy", def.Energy, "relative threshold on energy_j and avg_enclosure_w")
	resp := fs.Float64("resp", def.Resp, "relative threshold on resp_mean_us and resp_p95_us")
	spinups := fs.Float64("spinups", def.SpinUps, "relative threshold on spin_ups")
	migrations := fs.Float64("migrations", def.Migrations, "relative threshold on migrations and migrated_bytes")
	alerts := fs.Float64("alerts", def.Alerts, "allowed absolute increase in alerts_firing and alerts_fired (0 = any new firing alert regresses)")
	series := fs.Bool("series", false, "diff two flight-series CSVs instead of manifests: locate each signal's first divergence window")
	tol := fs.Float64("tol", 1e-9, "with -series: relative tolerance before two samples count as diverged")
	if err := fs.Parse(args); err != nil {
		return false, err
	}
	if fs.NArg() != 2 {
		return false, fmt.Errorf("usage: esmstat diff [-energy F] [-resp F] [-spinups F] [-migrations F] [-alerts N] <baseline.json> <new.json>\n       esmstat diff -series [-tol F] <baseline.series.csv> <new.series.csv>")
	}
	if *series {
		return runSeriesDiff(os.Stdout, fs.Arg(0), fs.Arg(1), *tol)
	}
	a, err := experiments.ReadManifest(fs.Arg(0))
	if err != nil {
		return false, err
	}
	b, err := experiments.ReadManifest(fs.Arg(1))
	if err != nil {
		return false, err
	}
	d := experiments.DiffManifests(a, b, experiments.DiffThresholds{
		Energy: *energy, Resp: *resp, SpinUps: *spinups, Migrations: *migrations, Alerts: *alerts,
	})
	renderDiff(os.Stdout, a, b, d)
	return d.Regressed(), nil
}

// renderDiff prints the signal table, advisory warnings, and the
// verdict line.
func renderDiff(out io.Writer, a, b experiments.Manifest, d *experiments.Diff) {
	fmt.Fprintf(out, "diff %s/%s: %s -> %s\n", a.Workload, a.Policy, orDash(a.Date), orDash(b.Date))
	for _, w := range d.Warnings {
		fmt.Fprintf(out, "warning: %s\n", w)
	}
	fmt.Fprintf(out, "  %-16s %14s %14s %9s %6s\n", "signal", "old", "new", "delta", "gate")
	regressions := 0
	for _, r := range d.Rows {
		delta := "-"
		if r.Old > 0 {
			delta = fmt.Sprintf("%+.1f%%", r.DeltaPct)
			if r.DeltaPct != 0 && math.Abs(r.DeltaPct) < 0.05 {
				// One decimal would round it to +0.0%, hiding a change.
				delta = fmt.Sprintf("%+.1g%%", r.DeltaPct)
			}
		}
		mark := ""
		if r.Regressed {
			mark = "  REGRESSION"
			regressions++
		}
		// Alert rows gate on absolute count deltas, not percentages.
		gate := fmt.Sprintf("%5.0f%%", r.Threshold*100)
		if strings.HasPrefix(r.Signal, "alerts_") {
			gate = fmt.Sprintf("   +%g", r.Threshold)
		}
		fmt.Fprintf(out, "  %-16s %14.6g %14.6g %9s %s%s\n",
			r.Signal, r.Old, r.New, delta, gate, mark)
	}
	if regressions > 0 {
		fmt.Fprintf(out, "REGRESSION: %d signal(s) over threshold\n", regressions)
	} else {
		fmt.Fprintln(out, "no regression")
	}
}

func orDash(s string) string {
	if s == "" {
		return "-"
	}
	return s
}

// seriesDivergence is one signal's first point of disagreement on the
// aligned grid.
type seriesDivergence struct {
	signal   string
	at       time.Duration // timestamp of the first diverged sample
	winStart time.Duration // previous aligned timestamp (window start)
	old, new float64
}

// runSeriesDiff time-aligns two flight-series CSVs on their shared
// timestamps and reports the first divergence window per signal; the
// returned bool is true when any signal diverged (the caller exits 1).
func runSeriesDiff(out io.Writer, aPath, bPath string, tol float64) (bool, error) {
	a, err := readSeriesFile(aPath)
	if err != nil {
		return false, err
	}
	b, err := readSeriesFile(bPath)
	if err != nil {
		return false, err
	}
	// Intersect the (sorted) sample grids.
	var ai, bi []int
	for i, j := 0, 0; i < len(a.TimesNS) && j < len(b.TimesNS); {
		switch {
		case a.TimesNS[i] == b.TimesNS[j]:
			ai, bi = append(ai, i), append(bi, j)
			i++
			j++
		case a.TimesNS[i] < b.TimesNS[j]:
			i++
		default:
			j++
		}
	}
	if len(ai) == 0 {
		return false, fmt.Errorf("series share no sample timestamps (%d vs %d samples); did the runs use different -series intervals?", a.Len(), b.Len())
	}
	var shared, missing []string
	for _, col := range a.Cols {
		if b.Column(col) != nil {
			shared = append(shared, col)
		} else {
			missing = append(missing, col)
		}
	}
	fmt.Fprintf(out, "series diff %s (%d samples) vs %s (%d samples): %d aligned, %d shared signals\n",
		aPath, a.Len(), bPath, b.Len(), len(ai), len(shared))
	for _, col := range missing {
		fmt.Fprintf(out, "warning: signal %s missing from %s\n", col, bPath)
	}

	var divs []seriesDivergence
	for _, col := range shared {
		av, bv := a.Column(col), b.Column(col)
		for k := range ai {
			x, y := av[ai[k]], bv[bi[k]]
			if !diverged(x, y, tol) {
				continue
			}
			d := seriesDivergence{signal: col, at: time.Duration(a.TimesNS[ai[k]]), old: x, new: y}
			if k > 0 {
				d.winStart = time.Duration(a.TimesNS[ai[k-1]])
			}
			divs = append(divs, d)
			break
		}
	}
	fmt.Fprintf(out, "  %-22s %16s %14s %14s\n", "signal", "first divergence", "old", "new")
	for _, col := range shared {
		found := false
		for _, d := range divs {
			if d.signal == col {
				fmt.Fprintf(out, "  %-22s %16v %14.6g %14.6g\n", col, d.at.Round(time.Second), d.old, d.new)
				found = true
				break
			}
		}
		if !found {
			fmt.Fprintf(out, "  %-22s %16s\n", col, "-")
		}
	}
	if len(divs) == 0 {
		fmt.Fprintln(out, "series identical on the aligned grid")
		return false, nil
	}
	first := divs[0]
	for _, d := range divs[1:] {
		if d.at < first.at {
			first = d
		}
	}
	fmt.Fprintf(out, "earliest divergence: %s at %v (window %v..%v)\n",
		first.signal, first.at.Round(time.Second), first.winStart.Round(time.Second), first.at.Round(time.Second))
	fmt.Fprintf(out, "next: esmstat explain -since %v -until %v <events.jsonl>\n",
		first.winStart.Round(time.Second), first.at.Round(time.Second))
	fmt.Fprintf(out, "DIVERGED: %d signal(s)\n", len(divs))
	return true, nil
}

// diverged applies the relative tolerance, with an absolute floor so
// zero-vs-rounding-noise never counts.
func diverged(x, y, tol float64) bool {
	d := math.Abs(x - y)
	if d <= 1e-12 {
		return false
	}
	return d > tol*math.Max(math.Abs(x), math.Abs(y))
}

// readSeriesFile loads one flight-series CSV.
func readSeriesFile(path string) (*obs.Series, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	s, err := obs.ReadSeriesCSV(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}
