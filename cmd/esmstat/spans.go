// Rendering of saved Perfetto span traces (esmbench -trace /
// esmd -trace): the latency breakdown and energy-attribution summaries
// embedded in the file's otherData, so a trace file alone answers
// "where did the time go" and "where did the joules go".

package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"

	"esm/internal/obs"
)

// loadPerfetto reads the otherData summary of a trace file. The events
// are only scanned past, never decoded: the summary is all either
// command prints.
func loadPerfetto(path string) (*obs.PerfettoOtherData, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var pf struct {
		OtherData *obs.PerfettoOtherData `json:"otherData"`
	}
	if err := json.NewDecoder(f).Decode(&pf); err != nil {
		return nil, fmt.Errorf("parse perfetto trace: %w", err)
	}
	return pf.OtherData, nil
}

// runLatency renders the per-cause and per-phase latency breakdown of
// one trace file.
func runLatency(out io.Writer, path string) error {
	od, err := loadPerfetto(path)
	if err != nil {
		return err
	}
	if od == nil || od.Latency == nil {
		return fmt.Errorf("%s: no latency summary (written by a tracer without I/O spans?)", path)
	}
	sum := od.Latency
	label := od.Label
	if label == "" {
		label = path
	}
	fmt.Fprintf(out, "== %s: latency breakdown (%d application I/Os) ==\n", label, sum.Total.Count)
	w := func(kind string, r obs.LatencyRow) {
		fmt.Fprintf(out, "  %-22s %10d  mean %10v  p50 %10v  p95 %10v  p99 %10v  max %10v\n",
			kind+":"+r.Name, r.Count, r.Mean, r.P50, r.P95, r.P99, r.Max)
	}
	w("all", sum.Total)
	fmt.Fprintln(out, "\nby serve cause (response time):")
	for _, r := range sum.ByCause {
		w("cause", r)
	}
	fmt.Fprintln(out, "\nby phase (time spent in the phase):")
	for _, r := range sum.ByPhase {
		w("phase", r)
	}
	return nil
}

// runAttrib renders the energy attribution of one trace file: joules
// per pattern class, per management function and per enclosure, with
// the top items of each enclosure.
func runAttrib(out io.Writer, path string, top int) error {
	od, err := loadPerfetto(path)
	if err != nil {
		return err
	}
	if od == nil || od.Attribution == nil {
		return fmt.Errorf("%s: no energy attribution (written by a tracer without a ledger?)", path)
	}
	a := od.Attribution
	label := od.Label
	if label == "" {
		label = path
	}
	fmt.Fprintf(out, "== %s: energy attribution (%.1f J total) ==\n", label, a.TotalJ)
	share := func(j float64) float64 {
		if a.TotalJ <= 0 {
			return 0
		}
		return 100 * j / a.TotalJ
	}
	fmt.Fprintln(out, "\nby pattern class:")
	for c := 0; c < len(a.ByClass); c++ {
		fmt.Fprintf(out, "  %-10s %12.1f J  %5.1f%%\n", obs.ClassName(c), a.ByClass[c], share(a.ByClass[c]))
	}
	fmt.Fprintln(out, "\nby management function:")
	for fn := obs.EnergyFunc(0); fn < obs.EnergyFuncCount; fn++ {
		fmt.Fprintf(out, "  %-10s %12.1f J  %5.1f%%\n", fn.String(), a.ByFunc[fn], share(a.ByFunc[fn]))
	}
	fmt.Fprintf(out, "\nunattributed: %.1f J (%.1f%%)\n", a.UnattributedJ, share(a.UnattributedJ))
	fmt.Fprintln(out, "\nper enclosure:")
	for _, e := range a.Enclosures {
		fmt.Fprintf(out, "  enclosure %-3d %12.1f J  %5.1f%%\n", e.Enclosure, e.TotalJ, share(e.TotalJ))
		items := append([]obs.ItemEnergy(nil), e.ByItem...)
		sort.SliceStable(items, func(i, j int) bool { return items[i].Joules > items[j].Joules })
		for i, it := range items {
			if i >= top {
				break
			}
			name := fmt.Sprintf("item %d", it.Item)
			if it.Item == obs.UnattributedItem {
				name = "(unattributed)"
			}
			fmt.Fprintf(out, "    %-20s %-8s %12.1f J\n", name, obs.ClassName(obs.ClassIndex(it.Class)), it.Joules)
		}
	}
	return nil
}
