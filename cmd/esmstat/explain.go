// The explain subcommand: the root-cause report over a decision log
// (the events JSONL written by esmbench/esmreplay/esmd -events, or a
// saved /arrays/<name>/provenance payload). Given a time window —
// stated directly with -since/-until, or resolved from an alert rule's
// first firing transition in the same log — it ranks root-cause
// candidates from the windowed decision and runtime records and joins
// the end-of-run energy attribution back to each hot item's decision
// chain, so "the budget alert fired" becomes "12 injected spinup-fail
// faults forced 34 spin-ups on enclosures 2 and 5". The report is a
// pure function of its input files: byte-identical across reruns.

package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"esm/internal/core"
	"esm/internal/obs"
)

// runExplain implements `esmstat explain`.
func runExplain(out io.Writer, args []string) error {
	fs := flag.NewFlagSet("esmstat explain", flag.ExitOnError)
	since, until := addWindowFlags(fs)
	alertName := fs.String("alert", "", "resolve the window from this alert rule's first firing transition in the log")
	runLabel := fs.String("run", "", "restrict to the stream with this run label")
	window := fs.Duration("window", 10*time.Minute, "with -alert: window length ending at the firing instant")
	top := fs.Int("top", 5, "entries per ranked section")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() < 1 || fs.NArg() > 2 {
		return fmt.Errorf("usage: esmstat explain [-since D] [-until D | -alert RULE [-window D]] [-run LABEL] [-top N] <events.jsonl> [run.series.csv]")
	}
	path := fs.Arg(0)
	events, err := loadRun(path, *runLabel)
	if err != nil {
		return err
	}

	lo, hi := *since, *until
	var alertLine string
	if *alertName != "" {
		at, a, err := findAlertFiring(events, *alertName)
		if err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		hi = at
		lo = at - *window
		if lo < 0 {
			lo = 0
		}
		alertLine = fmt.Sprintf("alert %s first fired at %v (%s=%g, threshold %g)",
			a.Rule, at.Round(time.Second), a.Signal, a.Value, a.Threshold)
	}

	recs := logRows(events)
	var win []row
	for _, r := range recs {
		if r.t < lo || (hi > 0 && r.t > hi) {
			continue
		}
		win = append(win, r)
	}

	// The base name keeps reports from different artifact directories
	// byte-comparable (the CI smoke cmp's a rerun's report).
	fmt.Fprintf(out, "explain %s: %d ledger rows, %d in window %v..%s\n",
		filepath.Base(path), len(recs), len(win), lo.Round(time.Second), untilLabel(hi))
	if alertLine != "" {
		fmt.Fprintln(out, alertLine)
	}
	if len(win) == 0 {
		fmt.Fprintln(out, "no ledger rows in window; nothing to explain")
		return nil
	}

	renderWindowActivity(out, win)
	renderRootCauses(out, win)
	renderEnclosures(out, win, *top)
	renderHotItems(out, recs, *top)

	if fs.NArg() == 2 {
		s, err := readSeriesFile(fs.Arg(1))
		if err != nil {
			return err
		}
		s = s.Window(lo, hi)
		fmt.Fprintf(out, "\nseries context (%s, windowed):\n", fs.Arg(1))
		if s.Len() == 0 {
			fmt.Fprintln(out, "  no samples in window")
		} else {
			renderSeries(out, s)
		}
	}
	return nil
}

// loadRun reads a decision log, restricted to one run's stream when
// runLabel is set.
func loadRun(path, runLabel string) ([]obs.Event, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	events, err := obs.ReadEvents(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if runLabel == "" {
		return events, nil
	}
	byRun, runs := splitRuns(events)
	if _, ok := byRun[runLabel]; !ok {
		return nil, fmt.Errorf("%s: run %q not in log (have: %s)", path, runLabel, strings.Join(runs, ", "))
	}
	return byRun[runLabel], nil
}

// findAlertFiring returns the time of the first pending/ok -> firing
// transition of the named rule in the log.
func findAlertFiring(events []obs.Event, rule string) (time.Duration, *obs.AlertEvent, error) {
	for _, ev := range events {
		if ev.Type == obs.EvAlert && ev.Alert.Rule == rule && ev.Alert.State == string(obs.AlertFiring) {
			return time.Duration(ev.T), ev.Alert, nil
		}
	}
	return 0, nil, fmt.Errorf("alert %q never fired (rules present fire as \"alert\" events; was the run started with -alerts?)", rule)
}

// rowKind is what a row records.
type rowKind int

const (
	rowDetermination rowKind = iota
	rowMove
	rowReclass
	rowPreload // a preload pick (det >= 0) or a bulk load (det < 0)
	rowDestage // a write-delay pick (det >= 0) or a destage (det < 0)
	rowPower
	rowMigration
	rowFault
	rowAttrib
)

// row is the unit explain counts and windows: a determination, a
// decision, an action the array executed or an item's attributed
// joules. A cache record or an attribution record gives one row per
// item it lists.
type row struct {
	t    time.Duration
	kind rowKind
	// det is the determination number of a determination or decision
	// row; -1 on the rows of executed actions.
	det   int64
	cause string
	item  int64
	// class and prevClass are P0-P3 codes (-1 unknown).
	class, prevClass int
	// src is the enclosure of power, fault and attribution rows, and
	// with dst the source and destination of moves and migrations.
	src, dst int
	state    string // power rows: "spinup", "on" or "off"
	predDJ   float64
	joules   float64
}

// decisionRows maps each decision kind to its row kind.
var decisionRows = map[obs.DecisionKind]rowKind{
	obs.DecisionMove:       rowMove,
	obs.DecisionReclass:    rowReclass,
	obs.DecisionPreload:    rowPreload,
	obs.DecisionWriteDelay: rowDestage,
}

// logRows flattens a decision log into the rows explain reads; records
// that explain no activity (starts, skips, selections that load or
// destage nothing, alerts) give none.
func logRows(events []obs.Event) []row {
	var rows []row
	for _, ev := range events {
		t := time.Duration(ev.T)
		switch ev.Type {
		case obs.EvDetermination:
			d := ev.Determination
			rows = append(rows, row{t: t, kind: rowDetermination, det: d.N, cause: string(d.Cause)})
		case obs.EvDecision:
			d := ev.Decision
			if kind, ok := decisionRows[d.Kind]; ok {
				rows = append(rows, row{
					t: t, kind: kind, det: d.Det, cause: string(d.Cause), item: d.Item,
					class: d.Class, prevClass: d.PrevClass, src: d.Src, dst: d.Dst, predDJ: d.PredDJ,
				})
			}
		case obs.EvPowerOn, obs.EvPowerOff:
			p := ev.Power
			rows = append(rows, row{t: t, kind: rowPower, det: -1, cause: string(p.Cause), src: p.Enclosure, state: p.State})
		case obs.EvMigrationDone:
			m := ev.Migration
			rows = append(rows, row{t: t, kind: rowMigration, det: -1, item: m.Item, src: m.Src, dst: m.Dst})
		case obs.EvFault:
			rows = append(rows, row{t: t, kind: rowFault, det: -1, cause: ev.Fault.Kind, src: ev.Fault.Enclosure})
		case obs.EvCacheSelect, obs.EvCacheEvict:
			// A preload selection is the bulk load and a write-delay
			// eviction the destage; write-delay picks and preload drops
			// execute nothing.
			c := ev.Cache
			kind := rowPreload
			switch {
			case ev.Type == obs.EvCacheSelect && c.Function == "preload":
			case ev.Type == obs.EvCacheEvict && c.Function == "write-delay":
				kind = rowDestage
			default:
				continue
			}
			for _, it := range c.Items {
				rows = append(rows, row{t: t, kind: kind, det: -1, item: it})
			}
		case obs.EvAttribution:
			a := ev.Attribution
			for _, it := range a.Items {
				rows = append(rows, row{t: t, kind: rowAttrib, item: it.Item, class: int(it.Class), src: a.Enclosure, joules: it.Joules})
			}
		}
	}
	return rows
}

func untilLabel(hi time.Duration) string {
	if hi <= 0 {
		return "end"
	}
	return hi.Round(time.Second).String()
}

// renderWindowActivity prints the decision and runtime row counts of
// the window, with per-cause breakdowns where they carry signal.
func renderWindowActivity(out io.Writer, win []row) {
	var dets, moves, toCold, reclass, preDec, desDec int
	var spinups, powerOn, powerOff, migrations, destages, preloads, faults int
	detCauses := map[string]int{}
	for _, r := range win {
		switch r.kind {
		case rowDetermination:
			dets++
			detCauses[r.cause]++
		case rowMove:
			moves++
			if r.predDJ < 0 {
				toCold++
			}
		case rowReclass:
			reclass++
		case rowPreload:
			if r.det >= 0 {
				preDec++
			} else {
				preloads++
			}
		case rowDestage:
			if r.det >= 0 {
				desDec++
			} else {
				destages++
			}
		case rowPower:
			switch r.state {
			case "spinup":
				spinups++
			case "on":
				powerOn++
			case "off":
				powerOff++
			}
		case rowMigration:
			migrations++
		case rowFault:
			faults++
		}
	}
	fmt.Fprintln(out, "\nwindow activity:")
	fmt.Fprintf(out, "  determinations %d%s\n", dets, causeSuffix(detCauses))
	fmt.Fprintf(out, "  decisions      %d moves (%d to cold), %d reclassifications, %d preload picks, %d write-delay picks\n",
		moves, toCold, reclass, preDec, desDec)
	fmt.Fprintf(out, "  runtime        %d spin-ups, %d power-ons, %d power-offs, %d migrations, %d destages, %d preloads\n",
		spinups, powerOn, powerOff, migrations, destages, preloads)
	fmt.Fprintf(out, "  faults         %d injected\n", faults)
}

// causeSuffix formats a cause histogram as " (causes: a x2, b x1)",
// sorted by count then name for a stable report.
func causeSuffix(causes map[string]int) string {
	if len(causes) == 0 {
		return ""
	}
	type kv struct {
		name string
		n    int
	}
	var list []kv
	for name, n := range causes {
		if name == "" {
			name = "none"
		}
		list = append(list, kv{name, n})
	}
	sort.Slice(list, func(a, b int) bool {
		if list[a].n != list[b].n {
			return list[a].n > list[b].n
		}
		return list[a].name < list[b].name
	})
	parts := make([]string, len(list))
	for i, c := range list {
		parts[i] = fmt.Sprintf("%s x%d", c.name, c.n)
	}
	return " (causes: " + strings.Join(parts, ", ") + ")"
}

// rootCause is one ranked candidate explanation.
type rootCause struct {
	name   string
	score  float64
	detail string
}

// renderRootCauses ranks candidate explanations of the window by their
// row counts. Injected faults are exogenous — they cause the spin-ups
// and migrations that follow — so the fault burst is weighted above
// the symptoms it produces.
func renderRootCauses(out io.Writer, win []row) {
	faultKinds := map[string]int{}
	spinCauses := map[string]int{}
	reclassN, migrN, destageN, preloadN := 0, 0, 0, 0
	faultEncs := map[int]int{}
	spinEncs := map[int]int{}
	for _, r := range win {
		switch r.kind {
		case rowFault:
			faultKinds[r.cause]++
			faultEncs[r.src]++
		case rowPower:
			if r.state == "spinup" {
				spinCauses[r.cause]++
				spinEncs[r.src]++
			}
		case rowReclass:
			reclassN++
		case rowMigration:
			migrN++
		case rowDestage:
			if r.det < 0 {
				destageN++
			}
		case rowPreload:
			if r.det < 0 {
				preloadN++
			}
		}
	}
	var causes []rootCause
	if n := total(faultKinds); n > 0 {
		causes = append(causes, rootCause{
			name:  "fault burst",
			score: 2 * float64(n),
			detail: fmt.Sprintf("%d injected faults%s on enclosures %s",
				n, causeSuffix(faultKinds), encList(faultEncs)),
		})
	}
	if n := total(spinCauses); n > 0 {
		causes = append(causes, rootCause{
			name:  "spin-up storm",
			score: float64(n),
			detail: fmt.Sprintf("%d spin-up transitions%s on enclosures %s",
				n, causeSuffix(spinCauses), encList(spinEncs)),
		})
	}
	if reclassN > 0 {
		causes = append(causes, rootCause{"reclassification wave", float64(reclassN),
			fmt.Sprintf("%d items changed I/O-pattern class between determinations", reclassN)})
	}
	if migrN > 0 {
		causes = append(causes, rootCause{"migration surge", float64(migrN),
			fmt.Sprintf("%d migrations executed", migrN)})
	}
	if destageN > 0 {
		causes = append(causes, rootCause{"destage flush", float64(destageN),
			fmt.Sprintf("%d delayed writes destaged to disk", destageN)})
	}
	if preloadN > 0 {
		causes = append(causes, rootCause{"preload churn", float64(preloadN),
			fmt.Sprintf("%d items bulk-read into cache", preloadN)})
	}
	fmt.Fprintln(out, "\nroot causes (ranked):")
	if len(causes) == 0 {
		fmt.Fprintln(out, "  no decision or runtime activity in window")
		return
	}
	sort.Slice(causes, func(a, b int) bool {
		if causes[a].score != causes[b].score {
			return causes[a].score > causes[b].score
		}
		return causes[a].name < causes[b].name
	})
	for i, c := range causes {
		fmt.Fprintf(out, "  %d. %s: %s\n", i+1, c.name, c.detail)
	}
}

func total(m map[string]int) int {
	n := 0
	for _, v := range m {
		n += v
	}
	return n
}

// encList formats an enclosure histogram as "2 x3, 5 x1", sorted by
// count then enclosure.
func encList(encs map[int]int) string {
	type kv struct{ enc, n int }
	var list []kv
	for e, n := range encs {
		list = append(list, kv{e, n})
	}
	sort.Slice(list, func(a, b int) bool {
		if list[a].n != list[b].n {
			return list[a].n > list[b].n
		}
		return list[a].enc < list[b].enc
	})
	parts := make([]string, len(list))
	for i, e := range list {
		parts[i] = fmt.Sprintf("%d x%d", e.enc, e.n)
	}
	return strings.Join(parts, ", ")
}

// renderEnclosures prints the per-enclosure window activity table,
// ranked by spin-ups, then faults, then enclosure number.
func renderEnclosures(out io.Writer, win []row, top int) {
	type encRow struct {
		spinups, faults, powerOn, powerOff, migIn, migOut int
	}
	rows := map[int]*encRow{}
	get := func(e int) *encRow {
		if e < 0 {
			return nil
		}
		r := rows[e]
		if r == nil {
			r = &encRow{}
			rows[e] = r
		}
		return r
	}
	for _, r := range win {
		switch r.kind {
		case rowPower:
			if er := get(r.src); er != nil {
				switch r.state {
				case "spinup":
					er.spinups++
				case "on":
					er.powerOn++
				case "off":
					er.powerOff++
				}
			}
		case rowFault:
			if er := get(r.src); er != nil {
				er.faults++
			}
		case rowMigration:
			if er := get(r.dst); er != nil {
				er.migIn++
			}
			if er := get(r.src); er != nil {
				er.migOut++
			}
		}
	}
	if len(rows) == 0 {
		return
	}
	var encs []int
	for e := range rows {
		encs = append(encs, e)
	}
	sort.Slice(encs, func(a, b int) bool {
		ra, rb := rows[encs[a]], rows[encs[b]]
		if ra.spinups != rb.spinups {
			return ra.spinups > rb.spinups
		}
		if ra.faults != rb.faults {
			return ra.faults > rb.faults
		}
		return encs[a] < encs[b]
	})
	if len(encs) > top {
		encs = encs[:top]
	}
	fmt.Fprintln(out, "\ntop enclosures in window:")
	fmt.Fprintf(out, "  %4s %8s %7s %6s %6s %7s %8s\n", "enc", "spinups", "faults", "on", "off", "mig-in", "mig-out")
	for _, e := range encs {
		r := rows[e]
		fmt.Fprintf(out, "  %4d %8d %7d %6d %6d %7d %8d\n",
			e, r.spinups, r.faults, r.powerOn, r.powerOff, r.migIn, r.migOut)
	}
}

// renderHotItems joins the end-of-run energy attribution back to each
// item's decision chain over the whole log: the items that cost the
// most joules, and the determinations that put them where they are.
func renderHotItems(out io.Writer, recs []row, top int) {
	type itemAttr struct {
		item   int64
		joules float64
		class  int
		enc    int
	}
	attr := map[int64]*itemAttr{}
	for _, r := range recs {
		if r.kind != rowAttrib {
			continue
		}
		ia := attr[r.item]
		if ia == nil {
			ia = &itemAttr{item: r.item, class: r.class, enc: r.src}
			attr[r.item] = ia
		}
		ia.joules += r.joules
	}
	if len(attr) == 0 {
		return
	}
	var items []*itemAttr
	for _, ia := range attr {
		items = append(items, ia)
	}
	sort.Slice(items, func(a, b int) bool {
		if items[a].joules != items[b].joules {
			return items[a].joules > items[b].joules
		}
		return items[a].item < items[b].item
	})
	if len(items) > top {
		items = items[:top]
	}
	fmt.Fprintln(out, "\ntop items by attributed joules (end-of-run energy ledger):")
	for _, ia := range items {
		fmt.Fprintf(out, "  item %-8d %-3s enc %-3d %10.1f J%s\n",
			ia.item, patternName(ia.class), ia.enc, ia.joules, decisionChain(recs, ia.item))
	}
}

// decisionChain summarizes one item's decision rows across the log.
func decisionChain(recs []row, item int64) string {
	var moves, reclass, preloads, destages int
	var lastMove, lastReclass *row
	for i := range recs {
		r := &recs[i]
		if r.item != item {
			continue
		}
		switch r.kind {
		case rowMove:
			moves++
			lastMove = r
		case rowReclass:
			reclass++
			lastReclass = r
		case rowPreload:
			preloads++
		case rowDestage:
			destages++
		}
	}
	if moves+reclass+preloads+destages == 0 {
		return "  (no decisions recorded)"
	}
	var parts []string
	if moves > 0 {
		s := fmt.Sprintf("%d moves", moves)
		if lastMove != nil {
			s += fmt.Sprintf(" (last %d->%d at %v, predicted %+.0f J)",
				lastMove.src, lastMove.dst, lastMove.t.Round(time.Second), lastMove.predDJ)
		}
		parts = append(parts, s)
	}
	if reclass > 0 {
		s := fmt.Sprintf("%d reclass", reclass)
		if lastReclass != nil {
			s += fmt.Sprintf(" (last %s->%s at %v)",
				patternName(lastReclass.prevClass), patternName(lastReclass.class),
				lastReclass.t.Round(time.Second))
		}
		parts = append(parts, s)
	}
	if preloads > 0 {
		parts = append(parts, fmt.Sprintf("%d preloads", preloads))
	}
	if destages > 0 {
		parts = append(parts, fmt.Sprintf("%d destages", destages))
	}
	return "  " + strings.Join(parts, ", ")
}

// patternName formats a class code ("?" for unknown/-1).
func patternName(c int) string {
	if c < 0 || c > int(core.P3) {
		return "?"
	}
	return core.Pattern(c).String()
}
