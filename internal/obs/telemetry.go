package obs

// Telemetry is the one handle a run's telemetry surfaces travel in:
// replay.Run, storage.Array and policy.Context each take it whole.
// Every field is a nil-able pointer whose nil value is the disabled
// surface, so the zero Telemetry turns everything off and each call
// site pays one pointer check.
type Telemetry struct {
	// Recorder is the decision log: the typed records it encodes into
	// a JSONL file and a live Tail, their roll-up and the esm_* metrics.
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

// Sample flattens one flight sample once and hands the row to the
// flight recorder and the watchdog. final marks the run's closing
// sample, which the recorder keeps whatever its stride. The row is
// laid out for the flight recorder's first sample when there is one.
func (t Telemetry) Sample(s FlightSample, final bool) {
	if !t.Sampling() {
		return
	}
	// Room for 35 enclosures without touching the heap.
	var buf [128]float64
	row := appendFlightRow(buf[:0], s, t.Flight.layout(len(s.Enclosures)))
	t.Flight.add(s.T, row, final)
	t.Alerts.observe(s.T, row)
}

// Logging reports whether the decision log is attached, so a decision
// site can skip assembling its record.
func (t Telemetry) Logging() bool { return t.Recorder != nil }
