// Package policy defines the power-saving policy abstraction the trace
// replay engine drives, plus two reference baselines: NoPowerSaving (the
// paper's "without power saving" runs) and FixedTimeout (plain per-device
// spin-down, the behaviour of storage-level heuristics with no
// application knowledge at all).
//
// A policy observes the logical I/O stream (application level), the
// physical I/O stream (enclosure level) and power transitions, and acts
// on the array: enabling power-off per enclosure, migrating data, and
// configuring the preload and write-delay cache functions. Policies
// schedule their own periodic work on the shared event queue.
package policy

import (
	"time"

	"esm/internal/obs"
	"esm/internal/simclock"
	"esm/internal/storage"
	"esm/internal/trace"
)

// Context is the runtime a policy operates in.
type Context struct {
	// Array is the storage unit under management.
	Array *storage.Array
	// Catalog names the data items.
	Catalog *trace.Catalog
	// Clock is the shared virtual clock.
	Clock *simclock.Clock
	// Queue is the shared event queue; policies schedule periodic work
	// (monitoring-period ends, re-scans) on it.
	Queue *simclock.EventQueue
	// End is the replay horizon: events scheduled past it never fire.
	End time.Duration
	// Telemetry is the run's telemetry surfaces (zero = all off). A
	// policy that reports to them reads it in Init, so a replacement
	// policy and one wrapped by a decorator see the same surfaces.
	Telemetry obs.Telemetry
}

// Policy is a storage power-saving method under evaluation.
type Policy interface {
	// Name identifies the policy in reports.
	Name() string
	// Init is called once before replay starts.
	Init(ctx *Context)
	// OnLogical observes one application I/O just before it is submitted.
	OnLogical(rec trace.LogicalRecord)
	// OnPhysical observes one physical I/O issued to an enclosure.
	OnPhysical(rec trace.PhysicalRecord)
	// OnPower observes an enclosure power transition.
	OnPower(enc int, at time.Duration, on bool)
	// Finish is called once after the last event, before metrics are read.
	Finish(now time.Duration)
	// Determinations returns how many times the policy ran its data
	// placement determination, the paper's CPU-cost proxy (§VII-D).
	Determinations() int64
}

// NoPowerSaving leaves every enclosure spun up forever: the measurement
// baseline of the paper's figures.
type NoPowerSaving struct{}

// Name implements Policy.
func (NoPowerSaving) Name() string { return "none" }

// Init implements Policy; every enclosure keeps power-off disabled.
func (NoPowerSaving) Init(ctx *Context) {
	for e := 0; e < ctx.Array.Enclosures(); e++ {
		ctx.Array.SetSpinDownEnabled(e, false)
	}
}

// OnLogical implements Policy.
func (NoPowerSaving) OnLogical(trace.LogicalRecord) {}

// OnPhysical implements Policy.
func (NoPowerSaving) OnPhysical(trace.PhysicalRecord) {}

// OnPower implements Policy.
func (NoPowerSaving) OnPower(int, time.Duration, bool) {}

// Finish implements Policy.
func (NoPowerSaving) Finish(time.Duration) {}

// Determinations implements Policy.
func (NoPowerSaving) Determinations() int64 { return 0 }

// FixedTimeout spins every enclosure down after its idle timeout with no
// data movement and no cache assistance — the classic device-level
// heuristic (hd-idle style). It exists as an ablation point between "no
// power saving" and the managed policies.
type FixedTimeout struct{}

// Name implements Policy.
func (FixedTimeout) Name() string { return "timeout" }

// Init implements Policy; every enclosure gets power-off enabled.
func (FixedTimeout) Init(ctx *Context) {
	for e := 0; e < ctx.Array.Enclosures(); e++ {
		ctx.Array.SetSpinDownEnabled(e, true)
	}
}

// OnLogical implements Policy.
func (FixedTimeout) OnLogical(trace.LogicalRecord) {}

// OnPhysical implements Policy.
func (FixedTimeout) OnPhysical(trace.PhysicalRecord) {}

// OnPower implements Policy.
func (FixedTimeout) OnPower(int, time.Duration, bool) {}

// Finish implements Policy.
func (FixedTimeout) Finish(time.Duration) {}

// Determinations implements Policy.
func (FixedTimeout) Determinations() int64 { return 0 }
