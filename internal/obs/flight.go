// The flight recorder: whole-system snapshots on the simulated clock,
// kept in a compact columnar store with bounded-memory downsampling.
// Like Recorder and Tracer, a nil *FlightRecorder is a valid disabled
// instance — every method nil-checks its receiver, so wiring costs the
// hot path one pointer comparison when sampling is off.

package obs

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"sync"
	"time"
)

// FlightSample is one whole-system snapshot at simulated time T. The
// energy, spin-up, migration and I/O columns are cumulative since the
// start of the run; the cache and enclosure columns are instantaneous.
type FlightSample struct {
	T time.Duration

	// Cumulative energy of the enclosures alone and of the whole unit
	// (enclosures + controller), and the enclosure power-on count.
	EnclosureEnergyJ float64
	TotalEnergyJ     float64
	SpinUps          int

	// Instantaneous cache occupancy.
	CacheGeneralPages int
	CachePreloadBytes int64
	CacheDirtyBytes   int64

	// ClassCounts is the P0–P3 item distribution of the most recent
	// placement determination.
	ClassCounts [4]int

	// Cumulative policy and array counters.
	Determinations int64
	Migrations     int64
	MigratedBytes  int64
	PhysicalReads  int64
	PhysicalWrites int64
	CacheHits      int64

	// Running application-response aggregates.
	RespCount int64
	RespMean  time.Duration
	RespP95   time.Duration
	RespP99   time.Duration

	// Cumulative injected-fault count and the policy's current
	// degraded-mode flag.
	Faults   int64
	Degraded bool

	// Enclosures is the per-enclosure state; its length fixes the
	// column layout at the first recorded sample.
	Enclosures []EnclosureSample
}

// Enclosure power states as stored in the enc<i>_state column.
const (
	EnclosureOff    = 0
	EnclosureIdle   = 1
	EnclosureActive = 2
)

// EnclosureSample is one enclosure's state within a FlightSample.
type EnclosureSample struct {
	// State is EnclosureOff, EnclosureIdle or EnclosureActive (spin-up
	// counts as active: the disks draw power and I/O is pending).
	State uint8
	// UsedBytes is the allocated capacity.
	UsedBytes int64
	// IdleFor is how long the enclosure has been idle (zero unless
	// State is EnclosureIdle).
	IdleFor time.Duration
}

// flightMaxSamples bounds the stored samples. When the store fills,
// every other sample is dropped and the acceptance stride doubles, so
// memory stays bounded while the whole run remains covered at halved
// resolution.
const flightMaxSamples = 512

// FlightRecorder collects FlightSamples into a columnar Series. A nil
// *FlightRecorder is a valid disabled recorder.
type FlightRecorder struct {
	mu       sync.Mutex
	interval time.Duration
	encs     int // enclosure count, fixed at the first sample
	cols     []string
	store    colStore
}

// NewFlightRecorder returns a live flight recorder sampling every
// interval of simulated time. Zero lets the driver pick its default
// grid (replay uses span/120).
func NewFlightRecorder(interval time.Duration) *FlightRecorder {
	return &FlightRecorder{
		interval: interval,
		encs:     -1,
		store:    newColStore(flightMaxSamples),
	}
}

// Interval returns the configured sampling interval (zero for a nil or
// interval-less recorder, letting the driver pick its default).
func (f *FlightRecorder) Interval() time.Duration {
	if f == nil {
		return 0
	}
	return f.interval
}

// Stats reports the recorder's liveness: how many samples are stored
// and the simulated time of the most recent one (zero when empty).
// Status endpoints surface both so a stalled ingest is visible at a
// glance. Nil-safe.
func (f *FlightRecorder) Stats() (samples int, last time.Duration) {
	if f == nil {
		return 0, 0
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if n := len(f.store.times); n > 0 {
		return n, time.Duration(f.store.times[n-1])
	}
	return 0, 0
}

// scalarCols is the fixed scalar column order; per-enclosure columns
// (encColSuffixes, per enclosure) follow it in the layout.
var scalarCols = []string{
	"enclosure_energy_j", "total_energy_j", "spin_ups",
	"cache_general_pages", "cache_preload_b", "cache_dirty_b",
	"class_p0", "class_p1", "class_p2", "class_p3",
	"determinations", "migrations", "migrated_b",
	"physical_reads", "physical_writes", "cache_hits",
	"resp_count", "resp_mean_us", "resp_p95_us", "resp_p99_us",
	"faults", "degraded",
}

// encColSuffixes are the per-enclosure columns, enc<i>_<suffix>.
var encColSuffixes = []string{"state", "used_b", "idle_s"}

// flightCols is the column layout of a flight series over encs
// enclosures.
func flightCols(encs int) []string {
	cols := append([]string(nil), scalarCols...)
	for e := 0; e < encs; e++ {
		for _, suf := range encColSuffixes {
			cols = append(cols, fmt.Sprintf("enc%d_%s", e, suf))
		}
	}
	return cols
}

// flightCol resolves a flight column name to its index in the layout
// (for any enclosure count large enough to hold it), or -1.
func flightCol(name string) int {
	for c, n := range scalarCols {
		if n == name {
			return c
		}
	}
	rest, ok := strings.CutPrefix(name, "enc")
	if !ok {
		return -1
	}
	i := strings.IndexByte(rest, '_')
	if i <= 0 {
		return -1
	}
	e, err := strconv.Atoi(rest[:i])
	if err != nil || e < 0 {
		return -1
	}
	for k, suf := range encColSuffixes {
		if rest[i+1:] == suf {
			return len(scalarCols) + e*len(encColSuffixes) + k
		}
	}
	return -1
}

// appendFlightRow appends s flattened in the layout of encs enclosures
// (missing enclosures read zero, extra ones are dropped). It is the one
// FlightSample -> column mapping: Telemetry.Sample flattens each sample
// once, and the recorder stores the row the watchdog evaluates rules
// against.
func appendFlightRow(dst []float64, s FlightSample, encs int) []float64 {
	deg := 0.0
	if s.Degraded {
		deg = 1
	}
	dst = append(dst,
		s.EnclosureEnergyJ, s.TotalEnergyJ, float64(s.SpinUps),
		float64(s.CacheGeneralPages), float64(s.CachePreloadBytes), float64(s.CacheDirtyBytes),
		float64(s.ClassCounts[0]), float64(s.ClassCounts[1]), float64(s.ClassCounts[2]), float64(s.ClassCounts[3]),
		float64(s.Determinations), float64(s.Migrations), float64(s.MigratedBytes),
		float64(s.PhysicalReads), float64(s.PhysicalWrites), float64(s.CacheHits),
		float64(s.RespCount),
		float64(s.RespMean)/float64(time.Microsecond),
		float64(s.RespP95)/float64(time.Microsecond),
		float64(s.RespP99)/float64(time.Microsecond),
		float64(s.Faults), deg)
	for e := 0; e < encs; e++ {
		var es EnclosureSample
		if e < len(s.Enclosures) {
			es = s.Enclosures[e]
		}
		dst = append(dst, float64(es.State), float64(es.UsedBytes), es.IdleFor.Seconds())
	}
	return dst
}

// layout fixes the column layout at the first sample's enclosure
// count encs and returns the count every row is flattened in: the
// first sample's, or encs itself for a nil recorder.
func (f *FlightRecorder) layout(encs int) int {
	if f == nil {
		return encs
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.encs < 0 {
		f.encs = encs
		f.cols = flightCols(encs)
	}
	return f.encs
}

// add stores one flattened sample at t. The recorder accepts every
// stride-th offer (stride starts at 1 and doubles on each compaction),
// so after any number of offers memory holds at most flightMaxSamples
// rows: the first sample is always retained, and cumulative columns
// stay monotone because compaction only drops rows, never merges them.
// A final sample, the run's closing one, bypasses the stride so the
// last row always reflects the end-of-run totals; it replaces a row at
// the same instant.
func (f *FlightRecorder) add(t time.Duration, row []float64, final bool) {
	if f == nil {
		return
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if final {
		f.store.final(t, row)
	} else {
		f.store.offer(t, row)
	}
}

// Series returns a snapshot of the recorded time series (nil for a nil
// or empty recorder). The snapshot is independent of later recording.
func (f *FlightRecorder) Series() *Series {
	if f == nil {
		return nil
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if len(f.store.times) == 0 {
		return nil
	}
	return f.store.series(f.cols, f.interval)
}

// Series is an immutable columnar time series: Values[c][i] is column
// Cols[c] at simulated time TimesNS[i]. IntervalNS is the effective
// sampling interval after downsampling (0 when unknown).
type Series struct {
	Cols       []string    `json:"cols"`
	TimesNS    []int64     `json:"times_ns"`
	Values     [][]float64 `json:"values"`
	IntervalNS int64       `json:"interval_ns"`
}

// Len returns the number of samples.
func (s *Series) Len() int {
	if s == nil {
		return 0
	}
	return len(s.TimesNS)
}

// Column returns the values of the named column, or nil.
func (s *Series) Column(name string) []float64 {
	if s == nil {
		return nil
	}
	for c, n := range s.Cols {
		if n == name {
			return s.Values[c]
		}
	}
	return nil
}

// Window returns the sub-series with since <= t <= until (until <= 0
// means no upper bound). The returned series shares backing arrays.
func (s *Series) Window(since, until time.Duration) *Series {
	if s == nil {
		return nil
	}
	lo, hi := 0, len(s.TimesNS)
	for lo < hi && time.Duration(s.TimesNS[lo]) < since {
		lo++
	}
	if until > 0 {
		for hi > lo && time.Duration(s.TimesNS[hi-1]) > until {
			hi--
		}
	}
	out := &Series{Cols: s.Cols, TimesNS: s.TimesNS[lo:hi], IntervalNS: s.IntervalNS}
	out.Values = make([][]float64, len(s.Values))
	for c := range s.Values {
		out.Values[c] = s.Values[c][lo:hi]
	}
	return out
}

// WriteCSV writes the series as one header row ("t_ns" then the column
// names) plus one row per sample.
func (s *Series) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(append([]string{"t_ns"}, s.Cols...)); err != nil {
		return err
	}
	row := make([]string, 1+len(s.Cols))
	for i := range s.TimesNS {
		row[0] = strconv.FormatInt(s.TimesNS[i], 10)
		for c := range s.Cols {
			row[1+c] = strconv.FormatFloat(s.Values[c][i], 'g', -1, 64)
		}
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// WriteCSVFile writes the series as CSV to a new file at path.
func (s *Series) WriteCSVFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := s.WriteCSV(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// WriteJSON writes the series as one indented JSON object.
func (s *Series) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(s)
}

// ReadSeriesCSV parses a series written by WriteCSV.
func ReadSeriesCSV(r io.Reader) (*Series, error) {
	cr := csv.NewReader(r)
	rows, err := cr.ReadAll()
	if err != nil {
		return nil, err
	}
	if len(rows) == 0 || len(rows[0]) < 2 || rows[0][0] != "t_ns" {
		return nil, fmt.Errorf("obs: not a series CSV (want a t_ns header)")
	}
	s := &Series{Cols: append([]string(nil), rows[0][1:]...)}
	s.Values = make([][]float64, len(s.Cols))
	for ln, row := range rows[1:] {
		if len(row) != 1+len(s.Cols) {
			return nil, fmt.Errorf("obs: series row %d has %d fields, want %d", ln+2, len(row), 1+len(s.Cols))
		}
		t, err := strconv.ParseInt(row[0], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("obs: series row %d: %w", ln+2, err)
		}
		s.TimesNS = append(s.TimesNS, t)
		for c := range s.Cols {
			v, err := strconv.ParseFloat(row[1+c], 64)
			if err != nil {
				return nil, fmt.Errorf("obs: series row %d col %s: %w", ln+2, s.Cols[c], err)
			}
			s.Values[c] = append(s.Values[c], v)
		}
	}
	if s.Len() >= 2 {
		s.IntervalNS = s.TimesNS[1] - s.TimesNS[0]
	}
	return s, nil
}
