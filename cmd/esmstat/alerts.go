// The alerts subcommand: render watchdog alert state, either live from
// a running esmd control plane (GET /alerts) or reconstructed from a
// saved telemetry event log (the alert transition events in an esmd/
// esmbench -events JSONL file). Exits 1 when any rule is firing at the
// end — the CI gate for energy/SLO budget rules.

package main

import (
	"flag"
	"fmt"
	"io"
	"sort"
	"strings"
	"time"

	"esm/internal/fleet"
	"esm/internal/obs"
)

// runAlerts implements `esmstat alerts <url-or-file>`. The returned
// bool is true when any rule is firing at the end of the log (or right
// now, against a live control plane) — the caller exits 1.
func runAlerts(out io.Writer, args []string) (firing bool, err error) {
	fs := flag.NewFlagSet("esmstat alerts", flag.ExitOnError)
	runLabel := fs.String("run", "", "with an events file: only render the stream with this run label")
	if err := fs.Parse(args); err != nil {
		return false, err
	}
	if fs.NArg() != 1 {
		return false, fmt.Errorf("usage: esmstat alerts [-run LABEL] <http://host:port | events.jsonl>")
	}
	target := fs.Arg(0)
	if strings.HasPrefix(target, "http://") || strings.HasPrefix(target, "https://") {
		var rep fleet.AlertsReport
		if err := fetchJSON(strings.TrimRight(target, "/")+"/alerts", &rep); err != nil {
			return false, err
		}
		return renderAlertsReport(out, rep), nil
	}
	return renderAlertsLog(out, target, *runLabel)
}

// renderAlertsReport prints a live /alerts payload: the fleet-wide
// budget rules first, then every array's rules, then the verdict.
func renderAlertsReport(out io.Writer, rep fleet.AlertsReport) (firing bool) {
	s := rep.Summary
	fmt.Fprintf(out, "alerts: %d rules, %d firing, %d pending, %d fired, %d transitions\n",
		s.Rules, s.Firing, s.Pending, s.Fired, s.Transitions)
	if len(rep.Fleet) > 0 {
		fmt.Fprintln(out, "fleet:")
		printStatuses(out, rep.Fleet)
	}
	var names []string
	for name := range rep.Arrays {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(out, "array %s:\n", name)
		printStatuses(out, rep.Arrays[name])
	}
	if s.Firing > 0 {
		fmt.Fprintf(out, "FIRING: %d rule(s)\n", s.Firing)
		return true
	}
	fmt.Fprintln(out, "no alerts firing")
	return false
}

func printStatuses(out io.Writer, sts []obs.AlertStatus) {
	for _, st := range sts {
		fmt.Fprintf(out, "  %-44s %-8s value %g, threshold %g, fired %d, transitions %d\n",
			st.Spec, st.State, st.Value, st.Threshold, st.Fired, st.Transitions)
	}
}

// renderAlertsLog replays the alert transition events of a saved
// telemetry log: the chronicle per run, then each rule's final state.
func renderAlertsLog(out io.Writer, path, runLabel string) (firing bool, err error) {
	alerts, err := loadLog(path, runLabel, func(ev obs.Event) bool { return ev.Type == obs.EvAlert })
	if err != nil {
		return false, err
	}
	if len(alerts) == 0 {
		return false, fmt.Errorf("%s: no alert events (was the run started with -alerts?)", path)
	}
	byRun, runs := splitRuns(alerts)
	for i, r := range runs {
		if i > 0 {
			fmt.Fprintln(out)
		}
		if renderAlertRun(out, r, byRun[r]) {
			firing = true
		}
	}
	if firing {
		fmt.Fprintln(out, "FIRING at end of log")
	} else {
		fmt.Fprintln(out, "no alerts firing at end of log")
	}
	return firing, nil
}

// renderAlertRun prints one run's alert transitions and final states;
// it reports whether any rule ends the log in the firing state.
func renderAlertRun(out io.Writer, run string, events []obs.Event) (firing bool) {
	name := run
	if name == "" {
		name = "(unlabelled)"
	}
	fmt.Fprintf(out, "== %s: %d alert transitions ==\n", name, len(events))
	final := map[string]string{}
	fired := map[string]int{}
	var rules []string
	for _, ev := range events {
		a := ev.Alert
		if _, seen := final[a.Rule]; !seen {
			rules = append(rules, a.Rule)
		}
		final[a.Rule] = a.State
		if a.State == string(obs.AlertFiring) {
			fired[a.Rule]++
		}
		fmt.Fprintf(out, "  [%8v] %-20s %s -> %s  (%s=%g, threshold %g)\n",
			time.Duration(ev.T).Round(time.Second), a.Rule, a.Prev, a.State,
			a.Signal, a.Value, a.Threshold)
	}
	sort.Strings(rules)
	for _, r := range rules {
		fmt.Fprintf(out, "  %-20s final %-8s fired %d\n", r, final[r], fired[r])
		if final[r] == string(obs.AlertFiring) {
			firing = true
		}
	}
	return firing
}
