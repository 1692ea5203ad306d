// Package replay is the simulator's equivalent of the paper's trace
// replay tool with a power-saving method (§VII-A.2, Fig. 7): it feeds a
// logical I/O trace through a pluggable policy into the simulated storage
// unit, on one virtual timeline, and measures power consumption, I/O
// response time and throughput, migrated data size, and the enclosure
// I/O interval distribution.
package replay

import (
	"fmt"
	"runtime"
	"time"

	"esm/internal/faults"
	"esm/internal/metrics"
	"esm/internal/monitor"
	"esm/internal/obs"
	"esm/internal/policy"
	"esm/internal/storage"
	"esm/internal/trace"
)

// Run describes one replay experiment.
type Run struct {
	// Catalog names the data items of the trace.
	Catalog *trace.Catalog
	// Source streams the logical trace in time order. The engine
	// consumes it incrementally, so a trace far larger than memory
	// replays in O(items) space; a collected trace (esmbench's sweeps
	// replay one many times) replays through a trace.SliceSource. A
	// Source is single-use; give every Execute call its own. Requires
	// an explicit Duration (a stream's end is unknown up front, and
	// policies need the measurement span). Execute may read a source
	// other than a *trace.SliceSource ahead, from a goroutine of its
	// own: do not touch the source until Execute returns. It has
	// stopped reading by then, so the source may be closed at once. The
	// closed loop has one engine and two ways into it: a source with an
	// ItemStreams method (a generated workload's) is read through those
	// streams instead of Next, each item from its own, each stream
	// through its trace.ItemReader, the one reader of a generated stream
	// that the source's own merge also reads through; any other source
	// is read through Next and split by item as it goes.
	Source trace.Source
	// Placement is the initial enclosure of every item, indexed by ItemID.
	Placement []int
	// Storage configures the simulated array.
	Storage storage.Config
	// Policy is the power-saving method under test.
	Policy policy.Policy
	// Duration is the measurement span, required with a Source. A
	// Session with neither Duration nor Source is open-ended.
	Duration time.Duration
	// Shards is ignored: every run replays on the one serial engine.
	//
	// Deprecated: the sharded engine is gone (DESIGN.md §14); the field
	// stays only for callers that still set it.
	Shards int
	// ClosedLoop, when set, replays each data item's I/O stream with a
	// queue depth of one: an I/O cannot be issued before the item's
	// previous I/O completed, and the stall shifts the item's remaining
	// records. This models applications that block on I/O (sequential
	// scans, file-server sessions); a spin-up then delays a burst once
	// instead of being charged to every I/O issued during the wait. OLTP
	// traces, issued by many concurrent threads, replay open-loop.
	ClosedLoop bool
	// Windows optionally marks named sub-spans (TPC-H queries) whose read
	// responses are aggregated separately for the Fig. 15 analysis.
	Windows []Window
	// Faults, when non-nil, is the fault scenario injected into the run.
	// The same scenario (same seed) reproduces the same fault sequence.
	Faults *faults.Config
	// Telemetry is the run's telemetry surfaces (zero = all off),
	// handed once to the array and, through policy.Context, to the
	// policy:
	//   - Recorder and Tracer receive the decision log and spans.
	//     Finish settles the latency summary and energy attribution
	//     into the Result and, with a tracer, joins the energy ledger's
	//     top attributed items into the log, but closes neither: their
	//     sinks belong to the caller.
	//   - Flight is fed whole-system samples on the power-sampling grid
	//     (its Interval, or span/120 when zero); Result.Series carries
	//     them, and the final sample always matches the Result totals.
	//   - Alerts is evaluated on the same grid (plus the policy's
	//     instantaneous degrade bridge).
	// Every surface is fed from deterministic simulated-clock call
	// sites, so its output is byte-identical across reruns.
	Telemetry obs.Telemetry
}

// Window is a named measurement sub-span.
type Window struct {
	Name  string
	Start time.Duration
	End   time.Duration
}

// WindowResult is the per-window read-response aggregate.
type WindowResult struct {
	Name    string
	Reads   int64
	ReadSum time.Duration
}

// Result is the outcome of one replay.
type Result struct {
	// PolicyName identifies the policy.
	PolicyName string
	// Span is the measurement duration.
	Span time.Duration
	// AvgEnclosureW and AvgTotalW are the average power draws; EnergyJ is
	// total energy including the controller.
	AvgEnclosureW float64
	AvgTotalW     float64
	EnergyJ       float64
	// Resp aggregates application I/O response times.
	Resp metrics.ResponseStats
	// Windows carries the per-window read aggregates, aligned with
	// Run.Windows.
	Windows []WindowResult
	// Storage is the final array counter snapshot.
	Storage storage.Stats
	// Determinations is the policy's data-placement determination count.
	Determinations int64
	// SpinUps is the total number of enclosure power-ons.
	SpinUps int
	// PowerSeries samples the average summed enclosure power over
	// consecutive buckets of PowerBucket each — the simulator's version
	// of the §III-B "power consumption of the storage device" records.
	// It is derived from the same sampling grid that feeds the flight
	// recorder, so power is measured in exactly one place.
	PowerSeries []float64
	PowerBucket time.Duration
	// Series is the flight recorder's whole-system time series; nil
	// without Run.Telemetry.Flight.
	Series *obs.Series
	// Monitor is the storage monitor used for metrics; it holds the
	// per-enclosure interval distributions behind Figs 17–19.
	Monitor *monitor.StorageMonitor
	// StateMix is each enclosure's power-state residency over the run.
	StateMix []StateResidency
	// Faults counts the injected faults and failed operations of the run
	// (all zero without a fault scenario).
	Faults faults.Counters
	// Degradations counts the policy's transitions into degraded mode
	// (zero for policies without one).
	Degradations int64
	// Latency is the tracer's end-of-run latency breakdown (per cause
	// and per phase); nil without a tracer.
	Latency *obs.LatencySummary
	// Attribution is the tracer's energy attribution (per enclosure,
	// item, pattern class and management function); nil without a
	// tracer.
	Attribution *obs.Attribution
	// Alerts is the watchdog's end-of-run aggregate and AlertStates the
	// final per-rule states (zero/nil without Run.Telemetry.Alerts).
	Alerts      obs.AlertSummary
	AlertStates []obs.AlertStatus
	// Provenance is the decision log's roll-up (nil unless
	// Run.Telemetry.Recorder writes a log); the records went to its
	// sink.
	Provenance *obs.ProvenanceSummary
}

// StateResidency is the fraction of the run one enclosure spent in each
// power state.
type StateResidency struct {
	Active, Idle, Off, SpinUp float64
}

// Execute runs the experiment: a source loop over a Session (the
// closed loop drives the session's record step itself, through one
// engine, closedloop.go). A closed-loop replay of a source that splits
// by item (a generated workload's) reads each item's own streams,
// generated on a goroutine of its own when GOMAXPROCS allows
// (itemfeed.go); the closed loop demuxes any other source by item.
// Any source the closed loop does not split, but a SliceSource, is
// read ahead on a goroutine of its own when GOMAXPROCS allows (see
// readAheadOf). Execute stops those goroutines before it returns, on
// every path, so the caller may close the source as soon as it does.
func Execute(r Run) (*Result, error) {
	if r.Source == nil || r.Duration == 0 {
		return nil, fmt.Errorf("replay: Execute needs a Source and an explicit Duration")
	}
	s, err := NewSession(r)
	if err != nil {
		return nil, err
	}
	if err := s.execute(r.Source); err != nil {
		return nil, err
	}
	return s.Finish()
}

// readAheadOf returns src read ahead on a new producer goroutine
// (trace.ReadAhead), and the function that stops that goroutine and
// waits for it to exit. A SliceSource, what esmbench's sweeps replay,
// is returned as it is (with a no-op stop): indexing a slice leaves
// nothing to overlap, and reading it ahead made `esmbench -sweep`
// slower on both workloads measured (EXPERIMENTS.md, "reading the
// trace ahead"). So is any source when GOMAXPROCS is 1: with no second
// processor to produce on, the hand-off never won a majority of
// sixteen benchmark pairs.
// Concurrent Executes each read ahead even when their producers
// outnumber the processors: esmbench's cloud-block evaluation, two
// workers on two processors, replayed faster so (EXPERIMENTS.md).
// The producer counts in trace.ReadAheads, so a generated workload's
// source read on it leaves that processor out of its own split.
func readAheadOf(src trace.Source) (trace.Source, func()) {
	if _, ok := src.(*trace.SliceSource); ok || runtime.GOMAXPROCS(0) < 2 {
		return src, func() {}
	}
	ra := trace.NewReadAhead(src)
	return ra, ra.Stop
}

// execute replays src to its end, read ahead unless the closed loop
// reads its items' own streams.
func (s *Session) execute(src trace.Source) error {
	if _, split := src.(itemStreamer); !split || !s.r.ClosedLoop {
		var stop func()
		src, stop = readAheadOf(src)
		defer stop()
	}
	return s.replay(src)
}

// replay feeds src through the session to its end: the open loop
// record by record, the closed loop through its engine.
func (s *Session) replay(src trace.Source) error {
	if s.r.ClosedLoop {
		il, err := newItemLoop(src, s.r.Catalog, &s.clk, &s.evq, s.submit)
		if err != nil {
			return err
		}
		defer il.close()
		return il.run()
	}
	for {
		rec, ok := src.Next()
		if !ok {
			if err := src.Err(); err != nil {
				return fmt.Errorf("replay: %w", err)
			}
			return nil
		}
		if err := s.Feed(rec); err != nil {
			return err
		}
	}
}
