// File-server workload: a synthetic stand-in for the MSR Cambridge
// production trace the paper replays (Table I).
//
// Structure: Volumes volumes are assigned to Enclosures disk enclosures
// in alphabetical (index) order, as in the paper's setup. Every volume
// holds FilesPerVolume data items with distinct behaviours:
//
//   - one metadata item per volume, touched by low-rate background
//     "noise" (indexers, health checks) every ~20 s. At the item level
//     these are P3 (no gap exceeds the break-even time); at the block
//     level they keep the whole enclosure's I/O intervals short, which is
//     exactly why physical-only power management fails on file servers
//     (Fig. 2) and why moving these small items away matters.
//   - hot items on a subset of "busy" volumes: steadily accessed, P3.
//   - hot-read items: small (≈2.5 MB) read-mostly items touched in every
//     volume-activity window. They classify as P1 and have the highest
//     reads/size density, so the proposed method preloads them.
//   - read-burst items: large cold data (multi-GB) read in occasional
//     "deep" activity windows. P1, too big to preload.
//   - write-burst items: P2, written during deep windows.
//
// Volume activity is correlated: a volume has activity windows (user
// sessions); its items burst only inside windows. This gives the
// enclosure-level idle structure a real file server has.
package workload

import (
	"fmt"
	"math/rand"
	"time"

	"esm/internal/trace"
)

// FileServerConfig parameterises the file-server generator.
type FileServerConfig struct {
	// Volumes is the number of file-server volumes (Table I: 36).
	Volumes int
	// FilesPerVolume is the number of data items per volume.
	FilesPerVolume int
	// Enclosures is the number of disk enclosures (Table I: 12).
	Enclosures int
	// Duration is the trace length (Table I: 6 h).
	Duration time.Duration
	// Seed makes the trace deterministic.
	Seed int64

	// WindowEvery is the mean spacing of volume activity windows.
	WindowEvery time.Duration
	// DeepEvery is the mean spacing of deep windows (the ones that touch
	// the large cold read-burst and write-burst items).
	DeepEvery time.Duration
}

// DefaultFileServerConfig returns the paper-scale configuration.
func DefaultFileServerConfig() FileServerConfig {
	return FileServerConfig{
		Volumes:        36,
		FilesPerVolume: 50,
		Enclosures:     12,
		Seed:           42,
		Duration:       6 * time.Hour,
		WindowEvery:    10 * time.Minute,
		DeepEvery:      25 * time.Minute,
	}
}

// Scaled returns the configuration with the duration multiplied by f,
// for fast test and benchmark runs. Inter-arrival behaviour (and so the
// pattern classification) is unchanged; only the observation span
// shrinks.
func (c FileServerConfig) Scaled(f float64) FileServerConfig {
	c.Duration = time.Duration(float64(c.Duration) * f)
	return c
}

// Validate reports whether the configuration is usable.
func (c FileServerConfig) Validate() error {
	if c.Volumes <= 0 || c.FilesPerVolume < 8 || c.Enclosures <= 0 {
		return fmt.Errorf("workload: fileserver config must have volumes, >=8 files/volume and enclosures")
	}
	if c.Duration < 10*time.Minute {
		return fmt.Errorf("workload: fileserver duration %v too short to classify patterns", c.Duration)
	}
	return nil
}

// GenerateFileServer builds the file-server workload.
func GenerateFileServer(cfg FileServerConfig) (*Workload, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	cat := trace.NewCatalog()
	w := &Workload{
		Name:       "fileserver",
		Catalog:    cat,
		ClosedLoop: true,
		Enclosures: cfg.Enclosures,
		Duration:   cfg.Duration,
	}
	var ss streams
	var placement []int

	for v := 0; v < cfg.Volumes; v++ {
		enc := v * cfg.Enclosures / cfg.Volumes
		hotVolume := v%5 == 0
		vol := fmt.Sprintf("vol%02d", v)

		// Volume activity windows, shared read-only by the volume's
		// streams; drawn eagerly from the master RNG at planning time.
		light, deep := volumeWindows(rng, cfg)

		// Metadata noise item: small, steadily touched.
		meta := cat.Add(vol+"/meta", 50<<20)
		placement = append(placement, enc)
		ss.lazy(meta, 0, rng.Int63(), func(rng *rand.Rand, emit emitFunc) {
			genNoise(rng, emit, 50<<20, cfg.Duration)
		})

		// Five small hot-read items per volume: preload candidates.
		for f := 0; f < 5; f++ {
			size := 1500<<10 + rng.Int63n(2<<20)
			id := cat.Add(fmt.Sprintf("%s/hotread%02d", vol, f), size)
			placement = append(placement, enc)
			ss.lazy(id, firstStart(light), rng.Int63(), func(rng *rand.Rand, emit emitFunc) {
				genWindowBursts(rng, emit, size, light, burstProfile{
					prob: 0.9, minN: 150, maxN: 350, spacing: 400 * time.Millisecond, readFrac: 0.98, ioSize: 8 << 10,
				})
			})
		}

		rest := cfg.FilesPerVolume - 6
		hotFiles := 0
		if hotVolume {
			hotFiles = 15
		}
		for f := 0; f < rest; f++ {
			switch {
			case f < hotFiles:
				// Steadily accessed hot item: P3.
				size := lognormBytes(rng, 256<<20, 0.8, 32<<20, 1<<30)
				id := cat.Add(fmt.Sprintf("%s/hot%02d", vol, f), size)
				placement = append(placement, enc)
				p := steadyProfile{
					meanGap:  800*time.Millisecond + time.Duration(rng.Int63n(int64(2*time.Second))),
					maxGap:   45 * time.Second,
					readFrac: 0.75, ioSize: 8 << 10,
				}
				ss.lazy(id, 0, rng.Int63(), func(rng *rand.Rand, emit emitFunc) {
					genSteady(rng, emit, size, cfg.Duration, p)
				})
			case f == rest-1 && v%4 == 1:
				// Write-burst item: P2.
				size := lognormBytes(rng, 1<<30, 1.0, 128<<20, 8<<30)
				id := cat.Add(fmt.Sprintf("%s/wburst", vol), size)
				placement = append(placement, enc)
				ss.lazy(id, firstStart(deep), rng.Int63(), func(rng *rand.Rand, emit emitFunc) {
					genWindowBursts(rng, emit, size, deep, burstProfile{
						prob: 0.8, minN: 30, maxN: 100, spacing: 2 * time.Second, readFrac: 0.10, ioSize: 1 << 20,
					})
				})
			default:
				// Large cold read-burst item: P1, too big to preload.
				size := lognormBytes(rng, 4<<30, 1.2, 256<<20, 30<<30)
				id := cat.Add(fmt.Sprintf("%s/file%03d", vol, f), size)
				placement = append(placement, enc)
				ss.lazy(id, firstStart(deep), rng.Int63(), func(rng *rand.Rand, emit emitFunc) {
					genWindowBursts(rng, emit, size, deep, burstProfile{
						prob: 0.6, minN: 10, maxN: 30, spacing: 5 * time.Second, readFrac: 0.90, ioSize: 1 << 20,
					})
				})
			}
		}
	}
	w.Placement = placement
	w.Streams = ss.list
	return w, nil
}

// window is one activity span of a volume.
type window struct {
	start time.Duration
	end   time.Duration
}

// volumeWindows draws the light windows (all windows) and the deep
// windows (a sparse subset drawn independently with a longer spacing).
func volumeWindows(rng *rand.Rand, cfg FileServerConfig) (light, deep []window) {
	for t := expDur(rng, cfg.WindowEvery); t < cfg.Duration; t += expDur(rng, cfg.WindowEvery) {
		end := t + 60*time.Second + expDur(rng, 60*time.Second)
		light = append(light, window{start: t, end: end})
		t = end
	}
	// The first deep window is guaranteed within the trace so no volume's
	// cold items stay entirely untouched (the paper's measurement period
	// runs to application completion, so every item is accessed).
	first := time.Duration(rng.Int63n(int64(cfg.Duration*3/5) + 1))
	for t := first; t < cfg.Duration; t += expDur(rng, cfg.DeepEvery) {
		end := t + 3*time.Minute + expDur(rng, 2*time.Minute)
		deep = append(deep, window{start: t, end: end})
		t = end
	}
	return light, deep
}

// firstStart is the start of the first window, a lower bound on every
// burst genWindowBursts aligns to wins (zero when there is none).
func firstStart(wins []window) time.Duration {
	if len(wins) == 0 {
		return 0
	}
	return wins[0].start
}

// genNoise emits the background metadata accesses: a read (sometimes a
// small write) every ~15–30 s for the whole trace, so no gap ever
// exceeds the break-even time.
func genNoise(rng *rand.Rand, emit emitFunc, size int64, dur time.Duration) {
	t := time.Duration(rng.Int63n(int64(10 * time.Second)))
	for t < dur {
		op := trace.OpRead
		if rng.Float64() < 0.2 {
			op = trace.OpWrite
		}
		if !emit(t, randOffset(rng, size, 4<<10), 4<<10, op) {
			return
		}
		t += 15*time.Second + time.Duration(rng.Int63n(int64(15*time.Second)))
	}
}

type steadyProfile struct {
	meanGap  time.Duration
	maxGap   time.Duration
	readFrac float64
	ioSize   int32
}

// genSteady emits a continuously accessed item: exponential gaps clamped
// below the break-even time so the item classifies P3.
func genSteady(rng *rand.Rand, emit emitFunc, size int64, dur time.Duration, p steadyProfile) {
	t := time.Duration(rng.Int63n(int64(5 * time.Second)))
	for t < dur {
		op := trace.OpRead
		if rng.Float64() >= p.readFrac {
			op = trace.OpWrite
		}
		if !emit(t, randOffset(rng, size, p.ioSize), p.ioSize, op) {
			return
		}
		t += clampDur(expDur(rng, p.meanGap), time.Millisecond, p.maxGap)
	}
}

type burstProfile struct {
	prob     float64 // chance the item bursts in a given window
	minN     int
	maxN     int
	spacing  time.Duration // mean gap between the burst's I/Os
	readFrac float64
	ioSize   int32
}

// genWindowBursts emits bursts aligned to the volume's activity windows.
func genWindowBursts(rng *rand.Rand, emit emitFunc, size int64, wins []window, p burstProfile) {
	for _, w := range wins {
		if rng.Float64() >= p.prob {
			continue
		}
		n := p.minN + rng.Intn(p.maxN-p.minN+1)
		span := w.end - w.start
		t := w.start + time.Duration(rng.Int63n(int64(span)))
		for i := 0; i < n && t < w.end; i++ {
			op := trace.OpRead
			if rng.Float64() >= p.readFrac {
				op = trace.OpWrite
			}
			if !emit(t, randOffset(rng, size, p.ioSize), p.ioSize, op) {
				return
			}
			t += expDur(rng, p.spacing)
		}
	}
}
