// Package replay is the simulator's equivalent of the paper's trace
// replay tool with a power-saving method (§VII-A.2, Fig. 7): it feeds a
// logical I/O trace through a pluggable policy into the simulated storage
// unit, on one virtual timeline, and measures power consumption, I/O
// response time and throughput, migrated data size, and the enclosure
// I/O interval distribution.
package replay

import (
	"fmt"
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
	// Source streams the logical trace in time order. This is the
	// preferred input: the engines consume it incrementally, so a trace
	// far larger than memory replays in O(items) space. A Source is
	// single-use; give every Execute call its own. Requires an explicit
	// Duration (a stream's end is unknown up front, and policies need
	// the measurement span).
	Source trace.Source
	// Records is the materialized logical trace, sorted by time.
	//
	// Deprecated: kept as a convenience adapter for small traces and
	// older callers; it is wrapped in a SliceSource internally. Ignored
	// when Source is set.
	Records []trace.LogicalRecord
	// Placement is the initial enclosure of every item, indexed by ItemID.
	Placement []int
	// Storage configures the simulated array.
	Storage storage.Config
	// Policy is the power-saving method under test.
	Policy policy.Policy
	// Duration is the measurement span. When zero, Execute uses the
	// time of the last record; a Session with neither Duration nor
	// Source is open-ended.
	Duration time.Duration
	// Shards, when greater than 1, replays the open loop on the sharded
	// engine: enclosures are partitioned into Shards contiguous groups,
	// each with its own worker lane and clock, synchronized by
	// conservative barriers at every cross-shard interaction. Results
	// are byte-identical to the serial engine (DESIGN.md §14). The value
	// is clamped to the enclosure count; closed-loop runs, fault runs
	// and single-enclosure arrays fall back to the serial engine.
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
	// Recorder, when non-nil, receives the telemetry event stream from
	// the array and (if the policy supports it) the policy itself.
	Recorder *obs.Recorder
	// Tracer, when non-nil, receives per-I/O and management-function
	// spans from the array and (if the policy supports it) the policy.
	// Finish settles the latency summary and energy attribution into
	// the Result but does not close the tracer: its sink belongs to the
	// caller (who may share it across runs or embed a summary on Close).
	Tracer *obs.Tracer
	// Faults, when non-nil, is the fault scenario injected into the run.
	// The same scenario (same seed) reproduces the same fault sequence.
	Faults *faults.Config
	// Series, when non-nil, is the flight recorder fed whole-system
	// snapshots on the power-sampling grid (the recorder's Interval, or
	// the default span/120 bucket when zero). Result.Series carries the
	// recorded time series; the final sample always matches the Result
	// totals exactly.
	Series *obs.FlightRecorder
	// Alerts, when non-nil, is the watchdog evaluated on the same
	// simulated sampling grid as the flight recorder (plus the policy's
	// instantaneous degrade bridge), so alert streams inherit the
	// serial-vs-sharded byte identity of every other output.
	Alerts *obs.Watchdog
	// Provenance, when non-nil, records the decision-provenance ledger:
	// the policy's determination inputs/outputs and the array's
	// triggering context for power transitions, migrations, preloads
	// and destages. Fed only from deterministic simulated-clock call
	// sites, so the stream is byte-identical serial vs -shards N. When
	// a tracer runs too, the energy ledger's top attributed items are
	// joined into the stream at end of run.
	Provenance *obs.Provenance
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
	// without Run.Series.
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
	// final per-rule states (zero/nil without Run.Alerts).
	Alerts      obs.AlertSummary
	AlertStates []obs.AlertStatus
	// Provenance is the decision-provenance roll-up and ProvSeries the
	// recorded ledger rows (nil without Run.Provenance).
	Provenance *obs.ProvenanceSummary
	ProvSeries *obs.Series
}

// StateResidency is the fraction of the run one enclosure spent in each
// power state.
type StateResidency struct {
	Active, Idle, Off, SpinUp float64
}

// Execute runs the experiment: a source loop over a Session (the
// closed loop drives the session's record step itself).
func Execute(r Run) (*Result, error) {
	src := r.Source
	if src == nil {
		// Slice adapter: the span can still be derived from the data.
		if n := len(r.Records); n > 0 && r.Records[n-1].Time > r.Duration {
			r.Duration = r.Records[n-1].Time
		}
		src = trace.NewSliceSource(r.Records)
		r.Source = src
	} else if r.Duration == 0 {
		return nil, fmt.Errorf("replay: a streaming Source needs an explicit Duration")
	}
	s, err := NewSession(r)
	if err != nil {
		return nil, err
	}
	defer s.Close()
	if r.ClosedLoop {
		err = newClosedLoop(src, &s.clk, &s.evq, s.submit).run()
	} else {
		for err == nil {
			rec, ok := src.Next()
			if !ok {
				if err = src.Err(); err != nil {
					err = fmt.Errorf("replay: %w", err)
				}
				break
			}
			err = s.Feed(rec)
		}
	}
	if err != nil {
		return nil, err
	}
	return s.Finish()
}
