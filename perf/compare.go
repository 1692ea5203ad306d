package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"
	"text/tabwriter"
)

// metricDef is an end-to-end metric's direction and regression bound.
type metricDef struct {
	name, unit   string
	higherBetter bool
	bound        float64 // share of the old median
	floor        float64 // smallest bound, in the metric's unit
	// summary marks the metrics every workload reports, which the
	// summary line (and so BENCHMARK.json) lists.
	summary bool
}

// endToEnd lists the metrics a user of the system sees. A change may
// worsen one by its bound before it counts as a regression; failed_frac
// has none, so any rise counts. The summary line carries failed_frac as
// its attempted and failed counts.
var endToEnd = []metricDef{
	{name: "records_per_s", unit: "1/s", higherBetter: true, bound: 0.10, summary: true},
	{name: "setup_s", unit: "s", bound: 0.10, floor: 0.25, summary: true},
	{name: "peak_rss_mb", unit: "MiB", bound: 0.10, summary: true},
	{name: "ingest_p50_ms", unit: "ms", bound: 0.10}, // fleet-ingest only
	{name: "failed_frac", unit: "1"},
}

func lookupEndToEnd(name string) (metricDef, bool) {
	for _, d := range endToEnd {
		if d.name == name {
			return d, true
		}
	}
	return metricDef{}, false
}

// compareFiles prints each workload's end-to-end metrics from two run
// files side by side with a verdict, and reports whether any is worse.
func compareFiles(oldPath, newPath string, w io.Writer) (bool, error) {
	old, err := readRun(oldPath)
	if err != nil {
		return false, err
	}
	cur, err := readRun(newPath)
	if err != nil {
		return false, err
	}
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\told median [q1 q3]\tnew median [q1 q3]\tbound\tverdict")
	anyWorse := false
	for _, nw := range cur.Workloads {
		var ow *workloadReport
		for _, r := range old.Workloads {
			if r.Name == nw.Name {
				ow = r
			}
		}
		if ow == nil {
			fmt.Fprintf(tw, "%s\t\t(not in %s)\t\t\t\n", nw.Name, oldPath)
			continue
		}
		for _, d := range endToEnd {
			before, after := ow.Samples[d.name], nw.Samples[d.name]
			if len(before) == 0 || len(after) == 0 {
				continue
			}
			v, bound := verdict(d, before, after)
			anyWorse = anyWorse || v == "worse"
			fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%s %s\t%s\n", nw.Name, d.name, spread(before), spread(after), num(bound), d.unit, v)
		}
	}
	return anyWorse, tw.Flush()
}

// verdict judges new against old: better or worse when the medians
// differ by more than the bound, within-bound when they do not, and
// unresolved when either side's interquartile spread exceeds the bound.
func verdict(d metricDef, old, cur []float64) (string, float64) {
	o1, om, o3 := quartiles(old)
	n1, nm, n3 := quartiles(cur)
	bound := max(d.bound*math.Abs(om), d.floor)
	worsening := nm - om
	if d.higherBetter {
		worsening = -worsening
	}
	switch {
	case bound > 0 && max(o3-o1, n3-n1) > bound:
		return "unresolved", bound
	case worsening > bound:
		return "worse", bound
	case worsening < -bound:
		return "better", bound
	default:
		return "within-bound", bound
	}
}

func spread(xs []float64) string {
	q1, q2, q3 := quartiles(xs)
	return fmt.Sprintf("%s [%s %s]", num(q2), num(q1), num(q3))
}

func num(v float64) string { return strconv.FormatFloat(v, 'g', 5, 64) }

func readRun(path string) (*runFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r runFile
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}
