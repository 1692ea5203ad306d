// Session: one replay on one virtual timeline, driven by pushing
// records into it. Execute is a source loop over a Session; the fleet's
// live arrays hold one each, so offline replay and live ingest share
// the wiring, the record step, the sampling grid and the end sequence.

package replay

import (
	"errors"
	"fmt"
	"time"

	"esm/internal/faults"
	"esm/internal/monitor"
	"esm/internal/obs"
	"esm/internal/policy"
	"esm/internal/powermodel"
	"esm/internal/simclock"
	"esm/internal/storage"
	"esm/internal/trace"
)

// planningHorizon is the policy End of an open-ended session: a live
// stream's length is unknown up front, so the horizon is simply
// generous.
const planningHorizon = 1000 * time.Hour

var (
	errFinished = errors.New("replay: session already finished")
	errClosed   = errors.New("replay: session closed before it finished")
)

// Session is one replay in progress. NewSession wires the simulation,
// Feed pushes records through it in time order, and Finish runs the end
// sequence and assembles the Result. SwapPolicy replaces the policy
// mid-run. A Session is not safe for concurrent use.
//
// A Run with neither Duration nor Source makes an open-ended session (a
// live stream): the policy plans against a generous horizon, the
// sampling grid runs for as long as the clock advances, and Finish ends
// the span at the later of the last record and the clock.
type Session struct {
	r    Run
	clk  simclock.Clock
	evq  simclock.EventQueue
	arr  *storage.Array
	mon  *monitor.StorageMonitor
	pol  policy.Policy
	inj  *faults.Injector
	ctx  policy.Context
	res  *Result
	open bool

	// classCounts is the latest P0–P3 distribution a policy reported;
	// it outlives a policy swap until the new policy's first
	// determination.
	classCounts [4]int

	last   time.Duration // time of the last fed record
	n      int64         // records fed
	done   bool
	final  *Result
	finErr error
}

// NewSession builds the simulation r describes: the array with its
// initial placement, the telemetry surfaces and fault injector, the
// observers, the initialized policy and the power/flight/alert sampling
// grid. r.Source is not consumed: the caller feeds records through
// Feed.
func NewSession(r Run) (*Session, error) {
	if r.Catalog == nil || r.Policy == nil {
		return nil, fmt.Errorf("replay: catalog and policy are required")
	}
	if len(r.Placement) != r.Catalog.Len() {
		return nil, fmt.Errorf("replay: placement covers %d of %d items", len(r.Placement), r.Catalog.Len())
	}
	s := &Session{r: r, pol: r.Policy, open: r.Duration == 0 && r.Source == nil}
	arr, err := storage.New(r.Storage, &s.clk, &s.evq, r.Catalog)
	if err != nil {
		return nil, err
	}
	s.arr = arr
	// Telemetry attaches before placement so the energy ledger's
	// residency accounting sees every item land on its home enclosure.
	tel := r.Telemetry
	arr.SetTelemetry(tel)
	// Predicted deltas use the run's actual electrical constants.
	tel.Recorder.ConfigurePower(r.Storage.Power.IdleW, r.Storage.Power.SpinUpTime)
	for item, enc := range r.Placement {
		if err := arr.Place(trace.ItemID(item), enc); err != nil {
			return nil, err
		}
	}
	s.mon = monitor.NewStorageMonitor(r.Storage.Enclosures)
	if r.Faults != nil {
		if s.inj, err = faults.NewInjector(*r.Faults); err != nil {
			return nil, err
		}
		arr.SetFaultInjector(s.inj)
		// A policy that reacts to fault load (ESM's degraded mode)
		// observes every injected fault.
		arr.SetFaultObserver(func(ev faults.Event) {
			if p, ok := s.pol.(interface{ OnFault(faults.Event) }); ok {
				p.OnFault(ev)
			}
		})
	}
	// Observers dispatch through s.pol, so a swapped policy needs no
	// rewiring.
	arr.SetPhysicalObserver(s.observePhysical)
	arr.SetPowerObserver(func(enc int, at time.Duration, on bool) {
		s.pol.OnPower(enc, at, on)
	})

	s.ctx = policy.Context{Array: arr, Catalog: r.Catalog, Clock: &s.clk, Queue: &s.evq, End: r.Duration, Telemetry: tel}
	if s.open {
		s.ctx.End = planningHorizon
	}
	s.pol.Init(&s.ctx)

	s.res = &Result{PolicyName: s.pol.Name(), Span: r.Duration, Windows: make([]WindowResult, len(r.Windows))}
	for i, w := range r.Windows {
		s.res.Windows[i].Name = w.Name
	}
	if s.open || r.Duration > 0 {
		s.startGrid()
	}
	return s, nil
}

// observePhysical feeds one physical I/O to the storage monitor and the
// current policy.
func (s *Session) observePhysical(rec trace.PhysicalRecord) {
	s.mon.RecordPhysical(rec)
	s.pol.OnPhysical(rec)
}

// startGrid samples enclosure power and the flight recorder on one
// fixed grid: the recorder's interval, or ~120 buckets per run, never
// finer than a second. An open-ended grid keeps rescheduling itself.
func (s *Session) startGrid() {
	r, res, tel := &s.r, s.res, s.r.Telemetry
	res.PowerBucket = tel.Flight.Interval()
	if res.PowerBucket <= 0 {
		res.PowerBucket = r.Duration / 120
	}
	if res.PowerBucket < time.Second {
		res.PowerBucket = time.Second
	}
	observe := func(now time.Duration) {
		if tel.Sampling() {
			tel.Sample(s.sample(now), false)
		}
	}
	var lastJ float64
	var tick func(now time.Duration)
	tick = func(now time.Duration) {
		s.arr.Finish()
		j := s.arr.Meter().EnclosureEnergyJ()
		res.PowerSeries = append(res.PowerSeries, (j-lastJ)/res.PowerBucket.Seconds())
		lastJ = j
		observe(now)
		if next := now + res.PowerBucket; s.open || next <= r.Duration {
			s.evq.Schedule(next, tick)
		}
	}
	// The t=0 baseline row: zero energy, initial placement.
	observe(0)
	s.evq.Schedule(res.PowerBucket, tick)
}

// sample settles the power accumulators and assembles one whole-system
// flight sample at simulated time now.
func (s *Session) sample(now time.Duration) obs.FlightSample {
	arr, res := s.arr, s.res
	arr.Finish()
	m := arr.Meter()
	occ := arr.CacheOccupancy()
	st := arr.Stats()
	fs := obs.FlightSample{
		T:                 now,
		EnclosureEnergyJ:  m.EnclosureEnergyJ(),
		TotalEnergyJ:      m.TotalEnergyJ(now),
		SpinUps:           m.SpinUps(),
		CacheGeneralPages: occ.GeneralPages,
		CachePreloadBytes: occ.PreloadUsedBytes,
		CacheDirtyBytes:   occ.WriteDelayDirtyBytes,
		Determinations:    s.pol.Determinations(),
		Migrations:        st.Migrations,
		MigratedBytes:     st.MigratedBytes,
		PhysicalReads:     st.PhysicalReads,
		PhysicalWrites:    st.PhysicalWrites,
		CacheHits:         st.CacheHits,
		RespCount:         res.Resp.Count(),
		RespMean:          res.Resp.Mean(),
		RespP95:           res.Resp.Percentile(0.95),
		RespP99:           res.Resp.Percentile(0.99),
		Faults:            s.inj.Counters().Total(),
	}
	if p, ok := s.pol.(interface{ Degraded() bool }); ok {
		fs.Degraded = p.Degraded()
	}
	if p, ok := s.pol.(interface{ ClassCounts() ([4]int, bool) }); ok {
		if c, ok := p.ClassCounts(); ok {
			s.classCounts = c
		}
	}
	fs.ClassCounts = s.classCounts
	for e := 0; e < arr.Enclosures(); e++ {
		es := obs.EnclosureSample{UsedBytes: arr.Used(e)}
		switch since, idle := arr.IdleSince(e, now); {
		case !arr.EnclosureOn(e, now):
			es.State = obs.EnclosureOff
		case idle:
			es.State = obs.EnclosureIdle
			es.IdleFor = now - since
		default:
			es.State = obs.EnclosureActive
		}
		fs.Enclosures = append(fs.Enclosures, es)
	}
	return fs
}

// Feed replays one record: fire every event due by its time, show it
// to the policy, submit it to the array, and account its response.
// Records must arrive in time order; an earlier record is rejected
// with a *trace.OrderError. An I/O killed by an injected fault is not
// an error.
func (s *Session) Feed(rec trace.LogicalRecord) error {
	if s.done {
		return errFinished
	}
	if s.r.ClosedLoop {
		return fmt.Errorf("replay: a closed-loop session is driven by Execute")
	}
	if rec.Time < s.last {
		return &trace.OrderError{Format: "replay", Record: s.n, Offset: -1, Prev: s.last, Got: rec.Time}
	}
	s.last = rec.Time
	s.n++
	s.evq.RunUntil(&s.clk, rec.Time)
	_, err := s.submit(rec, rec.Time)
	return err
}

// submit is the serial record step, shared with the closed loop: show
// the record to the policy, run it on the array, and account the
// response (origTime places it in the Run's windows). It returns the
// response time.
func (s *Session) submit(rec trace.LogicalRecord, origTime time.Duration) (time.Duration, error) {
	s.pol.OnLogical(rec)
	out, err := s.arr.Submit(rec)
	if err != nil {
		var fe *storage.FaultError
		if errors.As(err, &fe) {
			// The I/O failed on an injected fault: it consumed no
			// service and has no response time, so it is excluded from
			// the latency aggregates. The injector counted it.
			return 0, nil
		}
		return 0, fmt.Errorf("replay: %w", err)
	}
	s.res.Resp.Add(rec.Op, out.Response)
	if rec.Op == trace.OpRead {
		s.addWindows(s.res.Windows, origTime, out.Response)
	}
	return out.Response, nil
}

// addWindows adds one read response to every window of the Run that
// contains origTime.
func (s *Session) addWindows(out []WindowResult, origTime, resp time.Duration) {
	for wi, w := range s.r.Windows {
		if origTime >= w.Start && origTime < w.End {
			out[wi].Reads++
			out[wi].ReadSum += resp
		}
	}
}

// RunUntil fires every event due by t and advances the clock to t
// without feeding a record. Records before t are out of order
// afterwards.
func (s *Session) RunUntil(t time.Duration) error {
	if s.done {
		return errFinished
	}
	if t <= s.clk.Now() {
		return nil
	}
	s.last = t // the clock never trails the last record
	s.evq.RunUntil(&s.clk, t)
	return nil
}

// Finish ends the run at the later of the measurement span and the
// clock: drain the event queue, let the policy finish, destage delayed
// writes, settle the power meter and force the closing flight sample.
// It then assembles the Result. Finish is idempotent; Feed after Finish
// fails.
func (s *Session) Finish() (*Result, error) {
	if s.done {
		return s.final, s.finErr
	}
	s.done = true
	r, res, arr, tel := &s.r, s.res, s.arr, s.r.Telemetry
	end := res.Span
	if s.clk.Now() > end {
		end = s.clk.Now()
	}
	res.Span = end
	s.evq.RunUntil(&s.clk, end)
	s.pol.Finish(end)
	arr.FlushAll()
	arr.Finish()
	s.mon.Finish(end)

	res.Storage = arr.Stats()
	res.Determinations = s.pol.Determinations()
	res.Faults = s.inj.Counters()
	if p, ok := s.pol.(interface{ Degradations() int64 }); ok {
		res.Degradations = p.Degradations()
	}
	m := arr.Meter()
	res.SpinUps = m.SpinUps()
	res.AvgEnclosureW = m.AverageEnclosureW(end)
	res.AvgTotalW = m.AverageTotalW(end)
	res.EnergyJ = m.TotalEnergyJ(end)
	res.Monitor = s.mon
	if tel.Sampling() {
		// The forced closing sample: its totals equal the Result fields
		// computed just above, from the same settled meter and counters.
		tel.Sample(s.sample(end), true)
		res.Series = tel.Flight.Series()
	}
	res.Alerts = tel.Alerts.Summary()
	res.AlertStates = tel.Alerts.States()
	if tel.Tracer != nil {
		res.Latency = tel.Tracer.LatencySummary()
		res.Attribution = tel.Tracer.Attribute(end, arr.EnclosureEnergies())
	}
	// Join the energy ledger's top attributed items into the decision
	// log so `esmstat explain` can rank root causes by joules.
	tel.Recorder.RecordAttribution(end, res.Attribution)
	res.Provenance = tel.Recorder.Summary()
	for e := 0; e < r.Storage.Enclosures; e++ {
		acc := m.Enclosure(e)
		total := acc.Duration().Seconds()
		if total <= 0 {
			res.StateMix = append(res.StateMix, StateResidency{})
			continue
		}
		res.StateMix = append(res.StateMix, StateResidency{
			Active: acc.InState(powermodel.Active).Seconds() / total,
			Idle:   acc.InState(powermodel.Idle).Seconds() / total,
			Off:    acc.InState(powermodel.Off).Seconds() / total,
			SpinUp: acc.InState(powermodel.SpinUp).Seconds() / total,
		})
	}
	s.final = res
	return res, nil
}

// Close abandons an unfinished session: it can no longer be fed or
// finished. Close after Finish is a no-op.
func (s *Session) Close() {
	if !s.done {
		s.done, s.finErr = true, errClosed
	}
}

// SwapPolicy replaces the running policy: the outgoing one is stopped
// (its pending wake-ups cancelled, when it supports that), the incoming
// one starts at the current simulated time on the session's context,
// telemetry included. Energy, placement and cache state carry over.
func (s *Session) SwapPolicy(p policy.Policy) error {
	if s.done {
		return errFinished
	}
	if x, ok := s.pol.(interface{ Stop() }); ok {
		x.Stop()
	}
	s.pol = p
	p.Init(&s.ctx)
	return nil
}

// Run returns the run the session was built from (its telemetry
// surfaces included).
func (s *Session) Run() Run { return s.r }

// Policy returns the running policy.
func (s *Session) Policy() policy.Policy { return s.pol }

// Array returns the simulated storage array.
func (s *Session) Array() *storage.Array { return s.arr }

// Injector returns the fault injector (nil without a fault scenario).
func (s *Session) Injector() *faults.Injector { return s.inj }

// Now returns the simulated time.
func (s *Session) Now() time.Duration { return s.clk.Now() }

// Records returns how many records have been fed.
func (s *Session) Records() int64 { return s.n }

// Finished reports whether Finish (or Close) has run.
func (s *Session) Finished() bool { return s.done }
