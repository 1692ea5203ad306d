// One managed array of the fleet: a complete simulated storage unit —
// a replay.Session with its own virtual clock, event queue, array, ESM
// policy instance and telemetry surfaces — driven record by record from
// a live ingest stream. The session is open-ended (no span, no source),
// so an array fed a trace over the wire runs the same record step,
// sampling grid and end sequence as an offline replay of that trace.

package fleet

import (
	"bufio"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"esm/internal/config"
	"esm/internal/core"
	"esm/internal/faults"
	"esm/internal/obs"
	"esm/internal/replay"
	"esm/internal/storage"
	"esm/internal/trace"
)

// ArraySpec declares one array of the fleet with its data set loaded.
type ArraySpec struct {
	// Name identifies the array in URLs and in the array="<name>" label
	// of every metric it registers. Required; validated by
	// config.ValidateArrayName.
	Name string
	// Catalog and Placement are the item catalog and the initial
	// enclosure of every item, indexed by ItemID. Required.
	Catalog   *trace.Catalog
	Placement []int
	// Config optionally overrides storage and ESM parameters (nil =
	// paper defaults). The policy must be the proposed method.
	Config *config.File
	// Enclosures overrides the enclosure count (0 = infer from the
	// placement).
	Enclosures int
	// Faults, when non-nil, is the fault scenario injected into the
	// array's simulation.
	Faults *faults.Config
	// SeriesInterval is the flight-recorder sampling interval on the
	// simulated clock (0 = 30s, like esmd -series-interval).
	SeriesInterval time.Duration
	// EventSink, when non-nil, receives the array's decision log as
	// JSONL lines, buffered; Array.Close flushes it, and closes it when
	// it is an io.Closer.
	EventSink io.Writer
	// TraceSink, when non-nil, attaches a per-I/O span tracer that
	// writes the array's Perfetto file into it, labelled "esmd";
	// Array.Close writes the file, and closes it when it is an
	// io.Closer.
	TraceSink io.Writer
	// StatusOut, when non-nil, gets a human-readable line per placement
	// determination (single-array esmd's non-quiet mode).
	StatusOut io.Writer
	// Alerts is the array's watchdog rule set, evaluated on the flight
	// sampling grid (and the policy's degrade bridge) against this
	// array's samples. Fleet-wide fleet_* rules belong in
	// Options.Alerts, not here.
	Alerts []obs.Rule
	// Provenance keeps the live tail of the decision log, the latest
	// lines of the same encoding, served at /arrays/<name>/provenance.
	Provenance bool
}

// Status is the JSON liveness snapshot of one array — the fleet form
// of single-array esmd's /status payload, extended with the ingest and
// flight-recorder counters that show the stream is actually moving.
type Status struct {
	Array          string                 `json:"array"`
	TimeNS         int64                  `json:"t_ns"`
	Records        int64                  `json:"records"`
	Determinations int64                  `json:"determinations"`
	Period         string                 `json:"period"`
	PeriodNS       int64                  `json:"period_ns"`
	HotMask        []bool                 `json:"hot_mask,omitempty"`
	PatternMix     map[string]int         `json:"pattern_mix,omitempty"`
	SpinUps        int                    `json:"spin_ups"`
	MigratedBytes  int64                  `json:"migrated_bytes"`
	CacheHits      int64                  `json:"cache_hits"`
	AvgEnclosureW  float64                `json:"avg_enclosure_w"`
	EnergyJ        float64                `json:"energy_j"`
	Cache          storage.CacheOccupancy `json:"cache"`
	Faults         int64                  `json:"faults,omitempty"`
	FailedIOs      int64                  `json:"failed_ios,omitempty"`
	Degraded       bool                   `json:"degraded,omitempty"`
	Degradations   int64                  `json:"degradations,omitempty"`
	Latency        *obs.LatencySummary    `json:"latency,omitempty"`
	Attribution    *obs.Attribution       `json:"attribution,omitempty"`
	Alerts         *obs.AlertSummary      `json:"alerts,omitempty"`
	Provenance     *obs.ProvenanceSummary `json:"provenance,omitempty"`

	// Liveness: how much has arrived over the ingest surfaces, and how
	// far the flight recorder has sampled.
	IngestRequests int64 `json:"ingest_requests"`
	IngestRecords  int64 `json:"ingest_records"`
	SeriesSamples  int   `json:"series_samples"`
	SeriesLastTNS  int64 `json:"series_last_t_ns"`
	PolicySwaps    int64 `json:"policy_swaps,omitempty"`
	Finished       bool  `json:"finished,omitempty"`
}

// Array is one live simulated storage unit. All simulation state is
// guarded by mu; Status and Series are safe from HTTP goroutines.
type Array struct {
	name      string
	statusOut io.Writer
	// tail is the decision log's live tail (nil unless
	// ArraySpec.Provenance). It has its own lock, so scrapes never
	// contend with the simulation.
	tail *obs.Tail

	// mu guards the session below. Feed, Finish, SwapPolicy and rollup
	// all hold it; the simulated clock of one array never advances
	// concurrently with itself.
	mu      sync.Mutex
	sess    *replay.Session
	lastDet int64
	swaps   int64

	ingestRequests atomic.Int64
	ingestRecords  atomic.Int64

	snapMu sync.Mutex
	snap   Status
}

// newArray builds one array onto the shared fleet registry: its
// recorder, watchdog and tracer register through a view that labels
// every instrument array="<name>".
func newArray(spec ArraySpec, reg *obs.Registry) (*Array, error) {
	if err := config.ValidateArrayName(spec.Name); err != nil {
		return nil, fmt.Errorf("fleet: %w", err)
	}
	reg = reg.With("array", spec.Name)
	if spec.Catalog == nil {
		return nil, fmt.Errorf("fleet: array %q: catalog is required", spec.Name)
	}
	enclosures := spec.Enclosures
	if enclosures == 0 {
		for _, e := range spec.Placement {
			if e+1 > enclosures {
				enclosures = e + 1
			}
		}
	}
	cfgFile := spec.Config
	if cfgFile == nil {
		cfgFile = &config.File{}
	}
	storageCfg, err := cfgFile.BuildStorage(enclosures)
	if err != nil {
		return nil, fmt.Errorf("fleet: array %q: %w", spec.Name, err)
	}

	every := spec.SeriesInterval
	if every <= 0 {
		every = 30 * time.Second
	}
	var tail *obs.Tail
	if spec.Provenance {
		tail = new(obs.Tail)
	}
	rec := obs.New(obs.Options{
		Registry: reg,
		Log:      spec.EventSink,
		Tail:     tail,
		Label:    spec.Name,
	})
	tel := obs.Telemetry{
		Recorder: rec,
		Flight:   obs.NewFlightRecorder(every),
		// The watchdog shares the array's recorder (sequence-consistent
		// alert events) and the array's registry view.
		Alerts: obs.NewWatchdog(obs.WatchdogOptions{
			Rules:    spec.Alerts,
			Recorder: rec,
			Registry: reg,
		}),
	}
	if spec.TraceSink != nil {
		tel.Tracer = obs.NewTracer(obs.TracerOptions{
			Trace:    spec.TraceSink,
			Label:    "esmd",
			Registry: reg,
		})
	}

	esm, err := buildESM(cfgFile)
	if err != nil {
		return nil, fmt.Errorf("fleet: array %q: %w", spec.Name, err)
	}
	// No Duration and no Source: an open-ended session.
	sess, err := replay.NewSession(replay.Run{
		Catalog:   spec.Catalog,
		Placement: spec.Placement,
		Storage:   storageCfg,
		Policy:    esm,
		Faults:    spec.Faults,
		Telemetry: tel,
	})
	if err != nil {
		return nil, fmt.Errorf("fleet: array %q: %w", spec.Name, err)
	}
	a := &Array{
		name:      spec.Name,
		statusOut: spec.StatusOut,
		tail:      tail,
		sess:      sess,
	}
	a.updateSnapshotLocked(0)
	return a, nil
}

// buildESM constructs the proposed method from cfg, rejecting other
// policies.
func buildESM(cfg *config.File) (*core.ESM, error) {
	pol, err := cfg.BuildPolicy()
	if err != nil {
		return nil, err
	}
	esm, ok := pol.(*core.ESM)
	if !ok {
		return nil, fmt.Errorf("policy %q is not supported here (esm only)", pol.Name())
	}
	return esm, nil
}

// Name returns the array's fleet-unique name.
func (a *Array) Name() string { return a.name }

// Feed drives one logical record through the array's session:
// advance the virtual clock to the record's time (firing any management
// and sampling events on the way), show the record to the policy,
// submit it to the array. Records must arrive in time order (an earlier
// one fails with a *trace.OrderError); injected faults kill the
// individual I/O, not the stream.
func (a *Array) Feed(rec trace.LogicalRecord) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	if err := a.sess.Feed(rec); err != nil {
		return fmt.Errorf("fleet: array %q: %w", a.name, err)
	}
	a.afterRecordLocked()
	return nil
}

// esm returns the running policy instance.
func (a *Array) esm() *core.ESM { return a.sess.Policy().(*core.ESM) }

// afterRecordLocked refreshes the status snapshot on determination
// boundaries (and every 1024 records), printing the determination line
// when a StatusOut is attached.
func (a *Array) afterRecordLocked() {
	esm, now := a.esm(), a.sess.Now()
	det := esm.Determinations()
	newDet := det != a.lastDet
	a.lastDet = det
	if newDet || a.sess.Records()%1024 == 0 {
		a.updateSnapshotLocked(now)
	}
	if !newDet || a.statusOut == nil {
		return
	}
	hot := 0
	for _, h := range esm.Hot() {
		if h {
			hot++
		}
	}
	var mix core.PatternMix
	if plan := esm.LastPlan(); plan != nil {
		for _, p := range plan.Patterns {
			mix.Counts[p]++
			mix.Total++
		}
	}
	arr := a.sess.Array()
	fmt.Fprintf(a.statusOut, "[%s %v] determination #%d: %d/%d hot enclosures, period %v, %s, avg %.1f W, %d spin-ups, %.2f GB migrated\n",
		a.name, now.Round(time.Second), det, hot, arr.Enclosures(),
		esm.Period().Round(time.Second), mix.String(),
		arr.Meter().AverageEnclosureW(now),
		arr.Meter().SpinUps(), float64(arr.Stats().MigratedBytes)/(1<<30))
}

// Finish finalizes the stream with the session's end sequence: run the
// queue out to the last record's time, let the policy finish, flush
// delayed writes, settle the power meter and force the closing flight
// sample. Idempotent; further Feeds fail.
func (a *Array) Finish() error {
	a.mu.Lock()
	defer a.mu.Unlock()
	if _, err := a.sess.Finish(); err != nil {
		return fmt.Errorf("fleet: array %q: %w", a.name, err)
	}
	a.updateSnapshotLocked(a.sess.Now())
	return nil
}

// Finished reports whether the stream has been finalized.
func (a *Array) Finished() bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.sess.Finished()
}

// SwapPolicy replaces the running ESM instance with one built from
// cfg's policy section — live reconfiguration without restarting the
// array or losing any accumulated energy, placement or cache state.
// The outgoing instance's pending wake-up is cancelled; the incoming
// one starts a fresh monitoring period at the current simulated time
// and relearns access patterns from scratch. cfg's storage section is
// ignored: the physical array is fixed at creation.
func (a *Array) SwapPolicy(cfg *config.File) error {
	if cfg == nil {
		cfg = &config.File{}
	}
	esm, err := buildESM(cfg)
	if err != nil {
		return fmt.Errorf("fleet: array %q: %w", a.name, err)
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	if err := a.sess.SwapPolicy(esm); err != nil {
		return fmt.Errorf("fleet: array %q: %w", a.name, err)
	}
	a.lastDet = 0
	a.swaps++
	a.updateSnapshotLocked(a.sess.Now())
	return nil
}

// IngestNDJSON feeds newline-delimited JSON records (the native wire
// format of POST /arrays/<name>/ingest) and returns how many were
// applied. Decoding happens outside the array lock, so a slow network
// stream never blocks scrapes.
func (a *Array) IngestNDJSON(r io.Reader) (int64, error) {
	dec := trace.NewNDJSONReader(r)
	return a.ingest(dec, dec.Line)
}

// IngestStream feeds the binary stream-codec framing (tracegen
// -format stream). An empty body is zero records, as it is in the text
// formats, so a bodiless ?final=1 POST finalizes under any of them.
func (a *Array) IngestStream(r io.Reader) (int64, error) {
	br := bufio.NewReader(r)
	if _, err := br.Peek(1); err == io.EOF {
		return a.ingest(trace.NewSliceSource(nil), nil)
	}
	return a.ingest(trace.NewStreamReader(br), nil)
}

// IngestCSV feeds "time_ns,item,offset,size,op" lines (tracegen
// -format csv). Blank lines and header lines are skipped wherever they
// appear, so concatenated CSV streams work.
func (a *Array) IngestCSV(r io.Reader) (int64, error) {
	dec := trace.NewCSVReader(r)
	return a.ingest(dec, dec.Line)
}

// ingest drains src into Feed, counting the request and its records.
// Partially applied streams stay applied: records before the first
// error have already driven the simulation. Every error names its
// record: a decode error does itself, and a record the feed rejects is
// named by its input line when line is non-nil (the text formats), by
// its index in the stream otherwise.
func (a *Array) ingest(src trace.Source, line func() int64) (int64, error) {
	a.ingestRequests.Add(1)
	defer a.RefreshStatus()
	var n int64
	for rec, ok := src.Next(); ok; rec, ok = src.Next() {
		if err := a.Feed(rec); err != nil {
			if line != nil {
				return n, fmt.Errorf("line %d: %w", line(), err)
			}
			return n, fmt.Errorf("record %d: %w", n, err)
		}
		n++
		a.ingestRecords.Add(1)
	}
	return n, src.Err()
}

// Records returns how many records have been fed.
func (a *Array) Records() int64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.sess.Records()
}

// Series returns the flight recorder's live time series.
func (a *Array) Series() *obs.Series {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.sess.Run().Telemetry.Flight.Series()
}

// Alerts returns the watchdog's per-rule states (nil without rules).
// The watchdog has its own lock, so scrapes never contend with the
// simulation.
func (a *Array) Alerts() []obs.AlertStatus { return a.sess.Run().Telemetry.Alerts.States() }

// AlertSummary returns the watchdog's aggregate state.
func (a *Array) AlertSummary() obs.AlertSummary { return a.sess.Run().Telemetry.Alerts.Summary() }

// Status returns the most recent liveness snapshot. Safe from HTTP
// goroutines; never blocks on the simulation lock.
func (a *Array) Status() Status {
	a.snapMu.Lock()
	defer a.snapMu.Unlock()
	return a.snap
}

// RefreshStatus recomputes the snapshot from live simulation state.
func (a *Array) RefreshStatus() {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.updateSnapshotLocked(a.sess.Now())
}

// updateSnapshotLocked rebuilds the status payload; the caller holds
// a.mu.
func (a *Array) updateSnapshotLocked(now time.Duration) {
	esm, arr, tel := a.esm(), a.sess.Array(), a.sess.Run().Telemetry
	st := arr.Stats()
	snap := Status{
		Array:          a.name,
		TimeNS:         int64(now),
		Records:        a.sess.Records(),
		Determinations: esm.Determinations(),
		Period:         esm.Period().String(),
		PeriodNS:       int64(esm.Period()),
		HotMask:        append([]bool(nil), esm.Hot()...),
		SpinUps:        arr.Meter().SpinUps(),
		MigratedBytes:  st.MigratedBytes,
		CacheHits:      st.CacheHits,
		AvgEnclosureW:  arr.Meter().AverageEnclosureW(now),
		EnergyJ:        arr.Meter().TotalEnergyJ(now),
		Cache:          arr.CacheOccupancy(),
		IngestRequests: a.ingestRequests.Load(),
		IngestRecords:  a.ingestRecords.Load(),
		PolicySwaps:    a.swaps,
		Finished:       a.sess.Finished(),
		Provenance:     tel.Recorder.Summary(),
	}
	samples, last := tel.Flight.Stats()
	snap.SeriesSamples = samples
	snap.SeriesLastTNS = int64(last)
	if inj := a.sess.Injector(); inj != nil {
		c := inj.Counters()
		snap.Faults = c.Total()
		snap.FailedIOs = c.FailedAppIOs
		snap.Degraded = esm.Degraded()
		snap.Degradations = esm.Degradations()
	}
	if plan := esm.LastPlan(); plan != nil {
		snap.PatternMix = map[string]int{}
		for _, p := range plan.Patterns {
			snap.PatternMix[p.String()]++
		}
	}
	if tel.Alerts != nil {
		sum := tel.Alerts.Summary()
		snap.Alerts = &sum
	}
	if tel.Tracer != nil {
		// Settle the power-state accumulators so the attribution
		// reflects energy actually drawn.
		arr.Finish()
		snap.Latency = tel.Tracer.LatencySummary()
		snap.Attribution = tel.Tracer.Attribute(now, arr.EnclosureEnergies())
	}
	a.snapMu.Lock()
	a.snap = snap
	a.snapMu.Unlock()
}

// Report writes the end-of-stream summary (single-array esmd's final
// report, prefixed with the array name).
func (a *Array) Report(w io.Writer) {
	a.mu.Lock()
	defer a.mu.Unlock()
	esm, arr, now := a.esm(), a.sess.Array(), a.sess.Now()
	fmt.Fprintf(w, "\n[%s] processed %d records over %v\n", a.name, a.sess.Records(), now.Round(time.Second))
	fmt.Fprintf(w, "determinations     %d\n", esm.Determinations())
	fmt.Fprintf(w, "avg enclosure      %.1f W\n", arr.Meter().AverageEnclosureW(now))
	fmt.Fprintf(w, "avg total          %.1f W\n", arr.Meter().AverageTotalW(now))
	fmt.Fprintf(w, "spin-ups           %d\n", arr.Meter().SpinUps())
	st := arr.Stats()
	fmt.Fprintf(w, "migrated           %.2f GB\n", float64(st.MigratedBytes)/(1<<30))
	fmt.Fprintf(w, "cache hits         %d\n", st.CacheHits)
	fmt.Fprintf(w, "delayed writes     %d\n", st.DelayedWrites)
	if inj := a.sess.Injector(); inj != nil {
		c := inj.Counters()
		fmt.Fprintf(w, "injected faults    %d (%d failed app I/Os, %d failed migrations)\n",
			c.Total(), c.FailedAppIOs, c.FailedMigrations)
		fmt.Fprintf(w, "degradations       %d\n", esm.Degradations())
	}
}

// Close ends the session (if the stream was never finalized), flushes
// and closes the array's decision log, and writes and closes its trace
// file.
func (a *Array) Close() error {
	a.mu.Lock()
	a.sess.Close()
	tel := a.sess.Run().Telemetry
	a.mu.Unlock()
	err := tel.Recorder.Close()
	if terr := tel.Tracer.Close(); err == nil {
		err = terr
	}
	return err
}
