// Rendering of saved telemetry event logs (esmd -events /
// esmbench -events): per-run determination summaries and per-enclosure
// power-state timelines.

package main

import (
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"time"

	"esm/internal/obs"
)

// coveredEventKinds records the renderer's decision for every telemetry
// event kind: true means the kind is rendered below (chronicle line,
// aggregate count or timeline); false means it is deliberately folded
// into a richer sibling event (a start event whose end event carries
// the full story). TestRendererCoversAllEventKinds fails when obs grows
// a kind with no entry here, so new telemetry cannot silently vanish
// from the renderer.
var coveredEventKinds = map[obs.EventType]bool{
	obs.EvDeterminationStart: false, // determination (end) carries the decision
	obs.EvDetermination:      true,
	obs.EvMigrationStart:     false, // migration_done carries src/dst/bytes
	obs.EvMigrationDone:      true,
	obs.EvMigrationSkip:      true,
	obs.EvMigrationFail:      true,
	obs.EvCacheSelect:        true,
	obs.EvCacheEvict:         false, // occupancy is visible in cache_select deltas
	obs.EvPowerOn:            true,
	obs.EvPowerOff:           true,
	obs.EvReplanTrigger:      true,
	obs.EvPeriodAdapt:        true,
	obs.EvFault:              true,
	obs.EvDegrade:            true,
	obs.EvAlert:              true,
	obs.EvDecision:           false, // per-item detail of the determination; explain renders it
	obs.EvAttribution:        false, // explain joins it to the decisions
}

func runEvents(out io.Writer, path, runLabel string, since, until time.Duration) error {
	events, err := loadLog(path, runLabel, func(ev obs.Event) bool { return !explainOnly(ev) })
	if err != nil {
		return err
	}
	if len(events) == 0 {
		return fmt.Errorf("%s: no events", path)
	}
	if events = windowEvents(events, since, until); len(events) == 0 {
		return fmt.Errorf("%s: no events in the -since/-until window", path)
	}

	byRun, runs := splitRuns(events)
	for i, r := range runs {
		if i > 0 {
			fmt.Fprintln(out)
		}
		renderRun(out, r, byRun[r])
	}
	return nil
}

// explainOnly reports whether ev is a record only explain reads: a
// per-item decision, an end-of-run attribution, or the "on" record
// that ends a spin-up (the spin-up record marks the transition). The
// events view leaves them out, its event counts included.
func explainOnly(ev obs.Event) bool {
	return ev.Type == obs.EvDecision || ev.Type == obs.EvAttribution || ev.Power != nil && ev.Power.State == "on"
}

// loadLog reads the decision log at path and returns, in stream order,
// the events keep accepts (every event with a nil keep), restricted to
// the run labelled runLabel when that is set. A label the log does not
// carry is an error listing the labels it does; a run in the log whose
// events keep refuses all yields none, which the caller reports.
func loadLog(path, runLabel string, keep func(obs.Event) bool) ([]obs.Event, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	all, err := obs.ReadEvents(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if runLabel != "" {
		byRun, runs := splitRuns(all)
		if _, ok := byRun[runLabel]; !ok {
			return nil, fmt.Errorf("%s: run %q not in log (have: %s)", path, runLabel, strings.Join(runs, ", "))
		}
		all = byRun[runLabel]
	}
	var events []obs.Event
	for _, ev := range all {
		if keep == nil || keep(ev) {
			events = append(events, ev)
		}
	}
	return events, nil
}

// splitRuns groups events by their run label, keeping stream order
// within each run; runs lists the labels sorted.
func splitRuns(events []obs.Event) (byRun map[string][]obs.Event, runs []string) {
	byRun = map[string][]obs.Event{}
	for _, ev := range events {
		if byRun[ev.Run] == nil {
			runs = append(runs, ev.Run)
		}
		byRun[ev.Run] = append(byRun[ev.Run], ev)
	}
	sort.Strings(runs)
	return byRun, runs
}

// windowEvents keeps the events inside the [since, until] simulated-
// time window; until <= 0 means "to the end of the log", the same
// semantics as the series window.
func windowEvents(events []obs.Event, since, until time.Duration) []obs.Event {
	if since <= 0 && until <= 0 {
		return events
	}
	var out []obs.Event
	for _, ev := range events {
		t := time.Duration(ev.T)
		if t < since || (until > 0 && t > until) {
			continue
		}
		out = append(out, ev)
	}
	return out
}

func renderRun(out io.Writer, run string, events []obs.Event) {
	name := run
	if name == "" {
		name = "(unlabelled)"
	}
	var span time.Duration
	for _, ev := range events {
		if d := time.Duration(ev.T); d > span {
			span = d
		}
	}
	fmt.Fprintf(out, "== %s: %d events over %v ==\n", name, len(events), span.Round(time.Second))

	// Determination-by-determination summary.
	fmt.Fprintln(out, "\ndeterminations:")
	for _, ev := range events {
		switch ev.Type {
		case obs.EvDetermination:
			d := ev.Determination
			hot := 0
			for _, h := range d.Hot {
				if h {
					hot++
				}
			}
			fmt.Fprintf(out, "  [%8v] #%-3d %-16s P0/P1/P2/P3 %d/%d/%d/%d  hot %d/%d  moves %-3d wdelay %-3d preload %-3d next period %v\n",
				time.Duration(ev.T).Round(time.Second), d.N, d.Cause,
				d.PatternCounts[0], d.PatternCounts[1], d.PatternCounts[2], d.PatternCounts[3],
				hot, len(d.Hot), d.Moves, d.WriteDelay, d.Preload,
				time.Duration(d.NextPeriodNS).Round(time.Second))
		case obs.EvReplanTrigger:
			t := ev.Replan
			switch t.Trigger {
			case obs.CauseTriggerInterval:
				fmt.Fprintf(out, "  [%8v] trigger i): enclosure %d interval %v > break-even %v\n",
					time.Duration(ev.T).Round(time.Second), t.Enclosure,
					time.Duration(t.IntervalNS).Round(time.Second),
					time.Duration(int64(t.Threshold)).Round(time.Second))
			default:
				fmt.Fprintf(out, "  [%8v] trigger ii): enclosure %d, %d cold spin-ups > m=%.1f\n",
					time.Duration(ev.T).Round(time.Second), t.Enclosure, t.SpinUps, t.Threshold)
			}
		case obs.EvPeriodAdapt:
			p := ev.Period
			fmt.Fprintf(out, "  [%8v] period %v -> %v\n",
				time.Duration(ev.T).Round(time.Second),
				time.Duration(p.OldNS).Round(time.Second), time.Duration(p.NewNS).Round(time.Second))
		case obs.EvDegrade:
			d := ev.Degrade
			if d.Entered {
				fmt.Fprintf(out, "  [%8v] degraded mode entered: %d faults in %v window\n",
					time.Duration(ev.T).Round(time.Second), d.Faults,
					time.Duration(d.WindowNS).Round(time.Second))
			} else {
				fmt.Fprintf(out, "  [%8v] degraded mode left: %d faults in window\n",
					time.Duration(ev.T).Round(time.Second), d.Faults)
			}
		case obs.EvAlert:
			a := ev.Alert
			fmt.Fprintf(out, "  [%8v] alert %s: %s -> %s (%s=%g, threshold %g)\n",
				time.Duration(ev.T).Round(time.Second), a.Rule, a.Prev, a.State,
				a.Signal, a.Value, a.Threshold)
		}
	}

	// Aggregate counts.
	var migDone, migSkip, migFail int
	var migBytes int64
	spinupsBy := map[obs.Cause]int{}
	faultsBy := map[string]int{}
	offs := 0
	cacheSel := map[string]int{}
	for _, ev := range events {
		switch ev.Type {
		case obs.EvMigrationDone:
			migDone++
			migBytes += ev.Migration.Bytes
		case obs.EvMigrationSkip:
			migSkip++
		case obs.EvMigrationFail:
			migFail++
		case obs.EvPowerOn:
			spinupsBy[ev.Power.Cause]++
		case obs.EvPowerOff:
			offs++
		case obs.EvCacheSelect:
			cacheSel[ev.Cache.Function] += len(ev.Cache.Items)
		case obs.EvFault:
			faultsBy[ev.Fault.Kind]++
		}
	}
	fmt.Fprintf(out, "\nmigrations: %d done (%.2f GB), %d skipped, %d failed\n",
		migDone, float64(migBytes)/(1<<30), migSkip, migFail)
	fmt.Fprintf(out, "power-offs: %d\n", offs)
	if len(spinupsBy) > 0 {
		var causes []string
		for c := range spinupsBy {
			causes = append(causes, string(c))
		}
		sort.Strings(causes)
		fmt.Fprint(out, "spin-ups:  ")
		for _, c := range causes {
			fmt.Fprintf(out, " %s=%d", c, spinupsBy[obs.Cause(c)])
		}
		fmt.Fprintln(out)
	}
	if n := cacheSel["write-delay"] + cacheSel["preload"]; n > 0 {
		fmt.Fprintf(out, "cache selections: write-delay=%d preload=%d\n", cacheSel["write-delay"], cacheSel["preload"])
	}
	if len(faultsBy) > 0 {
		var kinds []string
		for k := range faultsBy {
			kinds = append(kinds, k)
		}
		sort.Strings(kinds)
		fmt.Fprint(out, "injected faults:")
		for _, k := range kinds {
			fmt.Fprintf(out, " %s=%d", k, faultsBy[k])
		}
		fmt.Fprintln(out)
	}

	renderTimelines(out, events, span)
}

// renderTimelines draws one character strip per enclosure: '#' on,
// '.' off, '^' spinning up, sampled at the start of each column.
func renderTimelines(out io.Writer, events []obs.Event, span time.Duration) {
	segs := obs.PowerSegments(events)
	if len(segs) == 0 || span <= 0 {
		return
	}
	const cols = 64
	fmt.Fprintf(out, "\npower timelines (%v per column; '#'=on '.'=off '^'=spin-up):\n", (span / cols).Round(time.Second))
	encs := make([]int, 0, len(segs))
	for e := range segs {
		encs = append(encs, e)
	}
	sort.Ints(encs)
	for _, e := range encs {
		strip := make([]byte, cols)
		for c := 0; c < cols; c++ {
			at := span * time.Duration(c) / cols
			if stateAt(segs[e], at) == "off" {
				strip[c] = '.'
			} else {
				strip[c] = '#'
			}
		}
		// Overlay one '^' at the column each spin-up lands in; its true
		// duration (the spin-up time) is not in the log.
		for _, s := range segs[e] {
			if s.State == "spinup" {
				c := min(max(int(int64(s.T)*cols/int64(span)), 0), cols-1)
				strip[c] = '^'
			}
		}
		off := obs.OffTime(segs[e], span)
		fmt.Fprintf(out, "  enc %-3d %s  %.0f%% off\n", e, strip, 100*off.Seconds()/span.Seconds())
	}
}

// stateAt returns "on" or "off" at time at, given the time-ordered
// transition segments. Before the first transition the enclosure is on;
// a spin-up counts as on from its start.
func stateAt(segs []obs.Segment, at time.Duration) string {
	state := "on"
	for _, s := range segs {
		if s.T > at {
			break
		}
		if s.State == "off" {
			state = "off"
		} else {
			state = "on"
		}
	}
	return state
}
