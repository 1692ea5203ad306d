package obs

// Telemetry is the one handle a run's telemetry surfaces travel in:
// replay.Run, storage.Array and policy.Context each take it whole.
// Every field is a nil-able pointer whose nil value is the disabled
// surface, so the zero Telemetry turns everything off and each call
// site pays one pointer check.
type Telemetry struct {
	// Recorder is the decision log: the typed records its sink writes
	// (a JSONL file, a live Tail), their roll-up and the esm_* metrics.
	Recorder *Recorder
	// Tracer receives per-I/O and management-function spans and keeps
	// the energy-attribution ledger.
	Tracer *Tracer
	// Flight records whole-system samples on the run's sampling grid.
	Flight *FlightRecorder
	// Alerts evaluates watchdog rules on the same grid.
	Alerts *Watchdog
}

// Sampling reports whether any surface consumes flight samples, so a
// driver can skip assembling them.
func (t Telemetry) Sampling() bool { return t.Flight != nil || t.Alerts != nil }

// Logging reports whether the decision log is attached, so a decision
// site can skip assembling its record.
func (t Telemetry) Logging() bool { return t.Recorder != nil }
