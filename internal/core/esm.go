// The energy-efficient storage management policy: the paper's Algorithm 1
// main loop plus the §V run-time power-saving method.

package core

import (
	"time"

	"esm/internal/faults"
	"esm/internal/monitor"
	"esm/internal/obs"
	"esm/internal/policy"
	"esm/internal/simclock"
	"esm/internal/trace"
)

// ESM is the proposed application-collaborative power-saving policy.
//
// Its life cycle follows Algorithm 1: both monitors run continuously;
// at the end of each monitoring period the power management function
// classifies every data item into a logical I/O pattern, splits the
// enclosures into hot and cold, computes the data placement, selects
// write-delay and preload candidates, configures power-off for the cold
// enclosures, and derives the next monitoring period. Between period
// ends, the §V-D pattern-change triggers can force an immediate re-run.
type ESM struct {
	params Params
	ctx    *policy.Context
	appMon *monitor.AppMonitor

	period         time.Duration
	periodStart    time.Duration
	lastRun        time.Duration
	ranOnce        bool
	inManagement   bool
	determinations int64

	hot         []bool
	lastPlan    *Plan
	lastPhys    []time.Duration
	hasPhys     []bool
	coldSpinUps int

	// Graceful degradation: when injected storage faults inside the
	// sliding FaultWindow reach FaultDegradeThreshold, the policy treats
	// every enclosure as hot (no spin-down, no migration) until the
	// array has been fault-free for a full window.
	degraded     bool
	degradations int64
	faultTimes   []time.Duration
	lastFault    time.Duration
	planErrors   int64

	// tel is the run's telemetry (policy.Context.Telemetry), read in
	// Init; the zero value keeps the policy observation-free.
	tel obs.Telemetry
	// classCounts is the P0–P3 item distribution of the latest
	// determination.
	classCounts [4]int
	wake        *simclock.Event

	// prevPatterns is the classification of the previous determination,
	// kept only while the decision log is attached so reclassification
	// decisions (P3 -> P1, …) can be logged.
	prevPatterns []Pattern
}

// NewESM returns the proposed policy with the given parameters.
func NewESM(params Params) (*ESM, error) {
	if err := params.Validate(); err != nil {
		return nil, err
	}
	return &ESM{params: params}, nil
}

// Name implements policy.Policy.
func (d *ESM) Name() string { return "esm" }

// Params returns the policy parameters.
func (d *ESM) Params() Params { return d.params }

// Init implements policy.Policy: it starts the application monitor and
// schedules the first monitoring-period end.
func (d *ESM) Init(ctx *policy.Context) {
	d.ctx = ctx
	d.tel = ctx.Telemetry
	d.appMon = monitor.NewAppMonitor(ctx.Catalog.Len(), d.params.BreakEven)
	d.period = d.params.InitialPeriod
	d.lastPhys = make([]time.Duration, ctx.Array.Enclosures())
	d.hasPhys = make([]bool, ctx.Array.Enclosures())
	// No power saving is configured until the first period has been
	// observed; the array keeps everything spun up, exactly like the
	// paper's system warming up its repositories.
	for e := 0; e < ctx.Array.Enclosures(); e++ {
		ctx.Array.SetSpinDownEnabled(e, false)
	}
	d.scheduleWake(d.period)
}

func (d *ESM) scheduleWake(after time.Duration) {
	if d.wake != nil {
		d.ctx.Queue.Cancel(d.wake)
		d.wake = nil
	}
	at := d.ctx.Clock.Now() + after
	if at > d.ctx.End {
		return
	}
	d.wake = d.ctx.Queue.Schedule(at, func(now time.Duration) {
		d.wake = nil
		d.runManagement(now, obs.CausePeriodEnd)
	})
}

// OnLogical implements policy.Policy: every application I/O feeds the
// application monitor.
func (d *ESM) OnLogical(rec trace.LogicalRecord) {
	d.appMon.Record(rec)
}

// OnPhysical implements policy.Policy. It also implements pattern-change
// trigger i): when a *hot* enclosure is observed to have had an I/O
// interval longer than the break-even time, the current classification is
// stale and the power management function runs immediately.
func (d *ESM) OnPhysical(rec trace.PhysicalRecord) {
	e := int(rec.Enclosure)
	if d.hasPhys[e] && d.hot != nil && d.hot[e] {
		if iv := rec.Time - d.lastPhys[e]; iv > d.params.BreakEven {
			d.maybeReplan(rec.Time, obs.CauseTriggerInterval, obs.ReplanEvent{
				Trigger:    obs.CauseTriggerInterval,
				Enclosure:  e,
				IntervalNS: int64(iv),
				Threshold:  float64(d.params.BreakEven.Nanoseconds()),
			})
		}
	}
	d.lastPhys[e] = rec.Time
	d.hasPhys[e] = true
}

// OnPower implements policy.Policy. It implements pattern-change trigger
// ii): when the cold enclosures have been powered on more than
// m = 2·(t_c − t_e)/l_b times since the end of the previous monitoring
// period, spin-downs are misfiring and the function runs immediately.
func (d *ESM) OnPower(enc int, at time.Duration, on bool) {
	if !on || d.hot == nil || d.hot[enc] {
		return
	}
	d.coldSpinUps++
	m := 2 * float64(at-d.periodStart) / float64(d.params.BreakEven)
	if float64(d.coldSpinUps) > m {
		d.maybeReplan(at, obs.CauseTriggerSpinUps, obs.ReplanEvent{
			Trigger:   obs.CauseTriggerSpinUps,
			Enclosure: enc,
			SpinUps:   d.coldSpinUps,
			Threshold: m,
		})
	}
}

// OnFault observes one injected storage fault. When the count inside
// the sliding FaultWindow reaches FaultDegradeThreshold, the policy
// enters degraded mode immediately: every enclosure is kept spinning,
// queued migrations are dropped, and the hot/cold split is suspended
// until runManagement observes a full fault-free window.
func (d *ESM) OnFault(ev faults.Event) {
	if d.params.FaultDegradeThreshold <= 0 || d.ctx == nil {
		return
	}
	d.lastFault = ev.T
	if d.degraded {
		return
	}
	cutoff := ev.T - d.params.FaultWindow
	times := d.faultTimes[:0]
	for _, t := range d.faultTimes {
		if t > cutoff {
			times = append(times, t)
		}
	}
	d.faultTimes = append(times, ev.T)
	if len(d.faultTimes) >= d.params.FaultDegradeThreshold {
		d.enterDegraded(ev.T)
	}
}

func (d *ESM) enterDegraded(now time.Duration) {
	d.degraded = true
	d.degradations++
	arr := d.ctx.Array
	for e := 0; e < arr.Enclosures(); e++ {
		arr.SetSpinDownEnabled(e, false)
	}
	arr.DropQueuedMigrations()
	if d.tel.Logging() {
		d.tel.Recorder.Log(now, obs.Event{Type: obs.EvDegrade, Degrade: &obs.DegradeEvent{
			Entered:  true,
			Faults:   len(d.faultTimes),
			WindowNS: int64(d.params.FaultWindow),
		}})
	}
	d.tel.Alerts.ObserveSignal(now, "degraded", 1)
}

// ClassCounts returns the P0–P3 item distribution of the latest
// determination; ok is false before the first one.
func (d *ESM) ClassCounts() (counts [4]int, ok bool) {
	return d.classCounts, d.determinations > 0
}

// Degraded reports whether the policy is currently in degraded mode.
func (d *ESM) Degraded() bool { return d.degraded }

// Degradations returns how many times the policy entered degraded mode.
func (d *ESM) Degradations() int64 { return d.degradations }

// PlanErrors returns how many planned migrations the array rejected.
func (d *ESM) PlanErrors() int64 { return d.planErrors }

// maybeReplan runs the management function now unless one ran within the
// cooldown window (the paper leaves the anti-thrash guard implicit).
// The trigger event is emitted only when the replan actually fires, so a
// cooldown-suppressed storm does not flood the event stream.
func (d *ESM) maybeReplan(now time.Duration, cause obs.Cause, ev obs.ReplanEvent) {
	if d.inManagement {
		return
	}
	if d.ranOnce && now-d.lastRun < d.params.ReplanCooldown {
		return
	}
	if d.tel.Logging() {
		ev := ev // a copy, so the parameter itself never escapes
		d.tel.Recorder.Log(now, obs.Event{Type: obs.EvReplanTrigger, Replan: &ev})
	}
	d.runManagement(now, cause)
}

// runManagement is the body of Algorithm 1's loop.
func (d *ESM) runManagement(now time.Duration, cause obs.Cause) {
	if d.inManagement {
		return
	}
	d.inManagement = true
	defer func() { d.inManagement = false }()

	if d.tel.Logging() {
		d.tel.Recorder.Log(now, obs.Event{Type: obs.EvDeterminationStart, Determination: &obs.DeterminationEvent{N: d.determinations + 1, Cause: cause}})
	}
	stats := d.appMon.EndPeriod(now)
	arr := d.ctx.Array

	// Degraded-mode recovery: once the array has been fault-free for a
	// full window, resume power saving; the hot/cold split below then
	// re-enables spin-down for the cold enclosures.
	if d.degraded && now-d.lastFault >= d.params.FaultWindow {
		d.degraded = false
		d.faultTimes = d.faultTimes[:0]
		if d.tel.Logging() {
			d.tel.Recorder.Log(now, obs.Event{Type: obs.EvDegrade, Degrade: &obs.DegradeEvent{
				Entered:  false,
				WindowNS: int64(d.params.FaultWindow),
			}})
		}
		d.tel.Alerts.ObserveSignal(now, "degraded", 0)
	}

	// Determine logical I/O patterns, hot and cold enclosures, and data
	// placement (Algorithms 2 and 3).
	plan := ComputePlacement(d.params, arr, stats)
	if d.params.DisableMigration {
		// Ablation: keep data where it is; the cache and power-control
		// decisions then work against the unconsolidated layout.
		plan.Moves = nil
		for i := range plan.Loc {
			plan.Loc[i] = arr.ItemEnclosure(trace.ItemID(i))
		}
	}

	locOf := func(it trace.ItemID) int { return plan.Loc[it] }

	// Determine write delay, then preload: the write-delay function is
	// applied first because the storage controls write timing itself,
	// whereas read timing depends on the run-time state of the
	// application (§IV-A).
	var wd, pre []trace.ItemID
	if !d.params.DisableWriteDelay {
		wd = SelectWriteDelay(d.params, stats, plan.Patterns, locOf, plan.Hot, arr.ItemSize)
	}
	if !d.params.DisablePreload {
		pre = SelectPreload(d.params, stats, plan.Patterns, locOf, plan.Hot, arr.ItemSize)
	}
	// §V-B/§V-C: the run-time method keeps already-applied cache
	// assignments unless the item genuinely changed character. An item
	// that saw no I/O this period (P0) is not a fresh candidate, but
	// dropping it would only force a spin-up when its next burst arrives;
	// keep it selected while it still lives on a cold enclosure.
	keepP0 := func(list []trace.ItemID, applied func(trace.ItemID) bool) []trace.ItemID {
		in := make([]bool, len(plan.Patterns))
		for _, it := range list {
			in[it] = true
		}
		for it := trace.ItemID(0); int(it) < len(plan.Patterns); it++ {
			if !in[it] && applied(it) && plan.Patterns[it] == P0 && !plan.Hot[plan.Loc[it]] {
				list = append(list, it)
			}
		}
		return list
	}
	wd = keepP0(wd, arr.WriteDelayed)
	pre = keepP0(pre, arr.Preloaded)

	// Record the determination's inputs and outputs before the plan
	// executes, so the decisions precede the runtime records (cache
	// loads, destages, power transitions) they provoke.
	if d.tel.Logging() {
		d.logDecisions(now, cause, stats, &plan, wd, pre)
	}

	arr.SetWriteDelay(wd)
	arr.SetPreload(pre)

	// Determine the power control method: power-off only for the cold
	// disk enclosures (§IV-G). In degraded mode everything stays hot.
	for e := 0; e < arr.Enclosures(); e++ {
		arr.SetSpinDownEnabled(e, !d.degraded && !plan.Hot[e])
	}

	// Movement of data items (§V-A): spills first, then P3 consolidation;
	// the array executes them one by one at the throttled rate. Degraded
	// mode suspends migration — the check repeats per move because a
	// fault during one migration can flip the mode mid-loop.
	if !d.params.DisableMigration {
		for _, mv := range plan.Moves {
			if d.degraded {
				break
			}
			if err := arr.MigrateItem(mv.Item, mv.Dst, nil); err != nil {
				// A rejected move means the plan and the array disagree;
				// skip it and keep serving rather than killing the run.
				d.planErrors++
			}
		}
	}

	// Determine the length of the next monitoring period (§IV-H).
	oldPeriod := d.period
	d.period = NextPeriod(d.params, stats, d.period)
	d.lastPlan = &plan
	d.hot = plan.Hot
	d.coldSpinUps = 0
	d.periodStart = now
	d.lastRun = now
	d.ranOnce = true
	d.determinations++
	d.classCounts = [4]int{}
	for _, p := range plan.Patterns {
		d.classCounts[p]++
	}
	if d.tel.Logging() {
		d.tel.Recorder.Log(now, obs.Event{Type: obs.EvDetermination, Determination: &obs.DeterminationEvent{
			N:             d.determinations,
			Cause:         cause,
			PatternCounts: d.classCounts,
			Hot:           append([]bool(nil), plan.Hot...),
			NHot:          countHot(plan.Hot),
			Moves:         len(plan.Moves),
			WriteDelay:    len(wd),
			Preload:       len(pre),
			NextPeriodNS:  int64(d.period),
		}})
		if oldPeriod != d.period {
			d.tel.Recorder.Log(now, obs.Event{Type: obs.EvPeriodAdapt, Period: &obs.PeriodEvent{OldNS: int64(oldPeriod), NewNS: int64(d.period)}})
		}
	}
	if trc := d.tel.Tracer; trc != nil {
		classes := make([]uint8, len(plan.Patterns))
		for i, p := range plan.Patterns {
			classes[i] = uint8(p)
		}
		trc.SetClasses(classes)
		trc.Management(obs.ManagementSpan{
			Kind: "determination", Start: now, End: now,
			Item: -1, Enclosure: -1, Dst: -1,
			Cause: string(cause), N: d.determinations,
		})
	}
	d.scheduleWake(d.period)
}

// countHot returns the number of hot enclosures in a hot mask.
func countHot(hot []bool) int {
	n := 0
	for _, h := range hot {
		if h {
			n++
		}
	}
	return n
}

// logDecisions records one determination's decisions: every
// reclassified item, every planned move with its candidate placement
// costs, and the preload and write-delay picks — each with the
// per-item features (interval estimate, read ratio) the decision was
// computed from. The determination record itself follows once the plan
// has executed.
func (d *ESM) logDecisions(now time.Duration, cause obs.Cause, stats []monitor.ItemPeriodStats, plan *Plan, wd, pre []trace.ItemID) {
	arr := d.ctx.Array
	det := d.determinations + 1
	// One payload serves every decision: Log encodes it before it
	// returns.
	var dec obs.Decision
	decide := func(x obs.Decision) {
		dec = x
		dec.Det, dec.Cause = det, cause
		d.tel.Recorder.Log(now, obs.Event{Type: obs.EvDecision, Decision: &dec})
	}
	// Planned per-enclosure IOPS load under the new placement — the
	// candidate cost the planner packs against (§IV-F).
	load := make([]float64, arr.Enclosures())
	for i := range stats {
		if l := plan.Loc[i]; l >= 0 && l < len(load) {
			load[l] += stats[i].AvgIOPS
		}
	}
	feature := func(i int) (intervalS, readRatio float64) {
		s := &stats[i]
		if s.LongIntervals > 0 {
			intervalS = s.LongIntervalSum.Seconds() / float64(s.LongIntervals)
		}
		if s.Count > 0 {
			readRatio = float64(s.Reads) / float64(s.Count)
		}
		return intervalS, readRatio
	}
	prevOf := func(i int) int {
		if len(d.prevPatterns) == len(plan.Patterns) {
			return int(d.prevPatterns[i])
		}
		return -1
	}

	if len(d.prevPatterns) == len(plan.Patterns) {
		for i, p := range plan.Patterns {
			if d.prevPatterns[i] == p {
				continue
			}
			iv, rr := feature(i)
			decide(obs.Decision{
				Kind: obs.DecisionReclass,
				Item: int64(i), Class: int(p), PrevClass: int(d.prevPatterns[i]),
				Src: arr.ItemEnclosure(trace.ItemID(i)), Dst: -1,
				IntervalS: iv, ReadRatio: rr,
			})
		}
	}
	for _, mv := range plan.Moves {
		i := int(mv.Item)
		iv, rr := feature(i)
		src := arr.ItemEnclosure(mv.Item)
		decide(obs.Decision{
			Kind: obs.DecisionMove,
			Item: int64(mv.Item), Class: int(plan.Patterns[i]), PrevClass: prevOf(i),
			Src: src, Dst: mv.Dst,
			IntervalS: iv, ReadRatio: rr,
			CostSrc: load[src], CostDst: load[mv.Dst],
			ToCold: !plan.Hot[mv.Dst],
		})
	}
	pick := func(kind obs.DecisionKind, items []trace.ItemID) {
		for _, it := range items {
			iv, rr := feature(int(it))
			decide(obs.Decision{
				Kind: kind,
				Item: int64(it), Class: int(plan.Patterns[it]), PrevClass: prevOf(int(it)),
				Src: arr.ItemEnclosure(it), Dst: -1,
				IntervalS: iv, ReadRatio: rr,
			})
		}
	}
	pick(obs.DecisionWriteDelay, wd)
	pick(obs.DecisionPreload, pre)

	d.prevPatterns = append(d.prevPatterns[:0], plan.Patterns...)
}

// Stop cancels the pending period-end wake-up. The fleet control plane
// calls it before hot-swapping in a replacement policy instance on the
// same simulation context, so the retired instance never fires again;
// its array observers are rewired by the caller.
func (d *ESM) Stop() {
	if d.wake != nil {
		d.ctx.Queue.Cancel(d.wake)
		d.wake = nil
	}
}

// Finish implements policy.Policy: a final management run would be
// pointless, but delayed writes must be destaged so the energy accounting
// is honest.
func (d *ESM) Finish(now time.Duration) {
	d.ctx.Array.FlushAll()
}

// Determinations implements policy.Policy.
func (d *ESM) Determinations() int64 { return d.determinations }

// Period returns the current monitoring-period length (exported for
// tests and the esmd daemon's status output).
func (d *ESM) Period() time.Duration { return d.period }

// Hot returns the current hot-enclosure flags (nil before the first run).
func (d *ESM) Hot() []bool { return d.hot }

// LastPlan returns the most recent placement plan (nil before the first
// run). The esmd daemon uses it for status reporting.
func (d *ESM) LastPlan() *Plan { return d.lastPlan }
