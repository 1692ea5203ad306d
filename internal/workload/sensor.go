// Sensor-archive workload: the paper's introduction motivates the
// system with "data intensive applications such as sensor data
// archives"; this generator models one. It is not part of the paper's
// evaluation — it exists to show the method generalises beyond the
// three evaluated applications, and it is the fourth runnable example.
//
// Structure: Streams sensors append continuously to their active
// segment (small writes, no gap beyond the break-even time → P3).
// Sealed segments are read back occasionally by analytics jobs (long
// gaps between scans → P1), a compaction job periodically rewrites the
// oldest sealed segments (write-majority bursts → P2), and the deep
// archive is never touched inside a monitoring period (→ P0). An
// archive is therefore the extreme P0/P1-heavy case: almost everything
// qualifies for power-off once the active segments are consolidated.
package workload

import (
	"fmt"
	"math/rand"
	"time"

	"esm/internal/trace"
)

// SensorConfig parameterises the sensor-archive generator.
type SensorConfig struct {
	// Streams is the number of sensors appending concurrently.
	Streams int
	// SealedPerStream is the number of sealed (historical) segments per
	// stream.
	SealedPerStream int
	// ArchiveFrac is the fraction of sealed segments in the deep archive
	// (never read during the trace).
	ArchiveFrac float64
	// Enclosures is the enclosure count.
	Enclosures int
	// Duration is the trace length.
	Duration time.Duration
	// Seed makes the trace deterministic.
	Seed int64
	// AppendEvery is the mean gap between one stream's appends.
	AppendEvery time.Duration
	// ScanEvery is the mean gap between analytic scans of one sealed
	// segment.
	ScanEvery time.Duration
	// CompactEvery is the mean gap between compaction jobs.
	CompactEvery time.Duration
}

// DefaultSensorConfig returns a laptop-scale archive: 48 streams, 40
// sealed segments each, two hours.
func DefaultSensorConfig() SensorConfig {
	return SensorConfig{
		Streams:         48,
		SealedPerStream: 40,
		ArchiveFrac:     0.8,
		Enclosures:      8,
		Duration:        2 * time.Hour,
		Seed:            45,
		AppendEvery:     800 * time.Millisecond,
		ScanEvery:       3 * time.Hour,
		CompactEvery:    20 * time.Minute,
	}
}

// Scaled returns the configuration with the duration multiplied by f.
func (c SensorConfig) Scaled(f float64) SensorConfig {
	c.Duration = time.Duration(float64(c.Duration) * f)
	return c
}

// Validate reports whether the configuration is usable.
func (c SensorConfig) Validate() error {
	if c.Streams <= 0 || c.SealedPerStream <= 0 || c.Enclosures <= 0 {
		return fmt.Errorf("workload: sensor config must be positive")
	}
	if c.ArchiveFrac < 0 || c.ArchiveFrac >= 1 {
		return fmt.Errorf("workload: sensor ArchiveFrac out of [0,1)")
	}
	if c.Duration < 10*time.Minute {
		return fmt.Errorf("workload: sensor duration %v too short to classify patterns", c.Duration)
	}
	return nil
}

// GenerateSensorArchive builds the sensor-archive workload.
func GenerateSensorArchive(cfg SensorConfig) (*Workload, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	cat := trace.NewCatalog()
	w := &Workload{
		Name:       "sensor",
		Catalog:    cat,
		ClosedLoop: true,
		Enclosures: cfg.Enclosures,
		Duration:   cfg.Duration,
	}
	var ss streams
	var placement []int
	next := 0
	place := func() int {
		e := next % cfg.Enclosures
		next++
		return e
	}

	var compactable []struct {
		id   trace.ItemID
		size int64
	}
	for st := 0; st < cfg.Streams; st++ {
		// Active segment: continuous small appends.
		active := cat.Add(fmt.Sprintf("sensor%03d/active", st), 512<<20)
		placement = append(placement, place())
		ss.lazy(active, 0, rng.Int63(), func(rng *rand.Rand, emit emitFunc) {
			genAppends(rng, emit, 512<<20, cfg.Duration, cfg.AppendEvery)
		})

		for seg := 0; seg < cfg.SealedPerStream; seg++ {
			size := lognormBytes(rng, 1<<30, 0.7, 128<<20, 6<<30)
			id := cat.Add(fmt.Sprintf("sensor%03d/seg%04d", st, seg), size)
			placement = append(placement, place())
			if float64(seg) < cfg.ArchiveFrac*float64(cfg.SealedPerStream) {
				// Deep archive: untouched (P0). A few become compaction
				// inputs instead.
				if seg%7 == 3 {
					compactable = append(compactable, struct {
						id   trace.ItemID
						size int64
					}{id, size})
				}
				continue
			}
			// Analytics: whole-segment scans at long intervals (P1).
			ss.lazy(id, 0, rng.Int63(), func(rng *rand.Rand, emit emitFunc) {
				genAnalyticsScans(rng, emit, size, cfg)
			})
		}
	}

	// Compaction: periodic jobs pick the next compactable segment, read
	// it fully and rewrite it (write-majority → P2).
	ci := 0
	for t := expDur(rng, cfg.CompactEvery); t < cfg.Duration && len(compactable) > 0; t += 70*time.Second + expDur(rng, cfg.CompactEvery) {
		seg := compactable[ci%len(compactable)]
		ci++
		t = compactionStream(&ss, rng, seg.id, seg.size, t, cfg.Duration)
	}

	w.Placement = placement
	w.Streams = ss.list
	return w, nil
}

// genAppends emits a continuous append stream; gaps never reach the
// break-even time, so the item classifies P3.
func genAppends(rng *rand.Rand, emit emitFunc, size int64, dur time.Duration, every time.Duration) {
	var off int64
	t := expDur(rng, every)
	for t < dur {
		n := int32(4<<10 + rng.Intn(28<<10))
		if off+int64(n) > size {
			off = 0
		}
		if !emit(t, off, n, trace.OpWrite) {
			return
		}
		off += int64(n)
		t += clampDur(expDur(rng, every), time.Millisecond, 45*time.Second)
	}
}

// genAnalyticsScans emits occasional partial scans of a sealed segment.
func genAnalyticsScans(rng *rand.Rand, emit emitFunc, size int64, cfg SensorConfig) {
	for t := expDur(rng, cfg.ScanEvery); t < cfg.Duration; t += 70*time.Second + expDur(rng, cfg.ScanEvery) {
		// Scan a random slice of the segment sequentially.
		span := size / int64(4+rng.Intn(8))
		off := randOffset(rng, size-span, 1<<20)
		end := off + span
		for o := off; o < end && t < cfg.Duration; o += 1 << 20 {
			n := int32(1 << 20)
			if end-o < int64(n) {
				n = int32(end - o)
			}
			if !emit(t, o, n, trace.OpRead) {
				return
			}
			t += 25 * time.Millisecond
		}
	}
}

// compactionStream registers a lazy compaction pass — read a slice of
// the segment, rewrite it in place, write-heavy overall — and returns
// the job's finish time. The slice offset is drawn at planning time so
// the schedule stays on the master RNG.
func compactionStream(ss *streams, rng *rand.Rand, id trace.ItemID, size int64, t, dur time.Duration) time.Duration {
	span := size / 8
	off := randOffset(rng, size-span, 1<<20)
	end := off + span
	ss.pure(id, t, func(emit emitFunc) {
		tt := t
		for o := off; o < end && tt < dur; o += 4 << 20 {
			if !emit(tt, o, 1<<20, trace.OpRead) {
				return
			}
			tt += 30 * time.Millisecond
		}
		for o := off; o < end && tt < dur; o += 1 << 20 {
			n := int32(1 << 20)
			if end-o < int64(n) {
				n = int32(end - o)
			}
			if !emit(tt, o, n, trace.OpWrite) {
				return
			}
			tt += 25 * time.Millisecond
		}
	})
	// Analytic finish time: it matches the emitted records exactly while
	// the job fits inside dur; past dur both the stream and the schedule
	// loop stop, so any difference is unobservable.
	reads := (span + (4 << 20) - 1) / (4 << 20)
	writes := (span + (1 << 20) - 1) / (1 << 20)
	return t + time.Duration(reads)*30*time.Millisecond + time.Duration(writes)*25*time.Millisecond
}
