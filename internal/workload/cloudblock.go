// Cloud block-storage workload: a multi-tenant volume population shaped
// like the Alibaba production study (Li et al.): thousands of virtual
// disks owned by tenants whose sizes follow a Zipf law, traffic that is
// write-dominant (~72% writes) and concentrated on a small hot set,
// diurnal load swings with short bursts on top, and volume churn as
// tenants arrive and depart mid-trace.
//
// Structure: Volumes virtual disks are distributed over Tenants tenants
// with Zipf(s) weights, so a handful of tenants own most of the fleet
// and, with it, most of the traffic. Each volume is one data item with
// one lazy stream; a 10k-volume, 100M-record trace costs O(volumes)
// memory to stream, never O(records). Every stream is deterministic
// from the master seed: the diurnal modulation is computed on the
// simulated clock (thinning against the volume's own RNG), not wall
// time.
//
// Volume classes:
//
//   - hot (~2%): latency-critical disks (databases, queues) issuing
//     steadily at tens of IOPS with frequent short bursts. P3, and
//     nearly all of the record volume.
//   - warm (~8%): ordinary application disks, active every few
//     seconds. P3 at the enclosure level; their traffic keeps any
//     enclosure they sit on from idling.
//   - cold (~90%): the long tail — backup, archived and forgotten
//     disks touched a handful of times a day. P0/P1/P2 candidates
//     that make consolidation pay: with ~800 volumes per enclosure,
//     only a dormant tail leaves enclosure-level gaps beyond the
//     spin-down break-even.
//
// Within a volume, writes are skewed to a hot region at the front
// (journals, metadata, appends) while reads spread across the whole
// disk — the access-locality half of the study's write skew.
package workload

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"esm/internal/trace"
)

// CloudBlockConfig parameterises the cloud-block generator.
type CloudBlockConfig struct {
	// Tenants is the number of tenants owning volumes.
	Tenants int
	// Volumes is the total virtual-disk population across all tenants.
	Volumes int
	// Enclosures is the number of disk enclosures.
	Enclosures int
	// Duration is the trace span.
	Duration time.Duration
	// Seed makes the trace deterministic.
	Seed int64

	// ZipfS is the tenant-size skew exponent: tenant k's share of the
	// volume population is proportional to 1/(k+1)^ZipfS.
	ZipfS float64
	// DayPeriod is the diurnal cycle length. Production days are
	// compressed so a 6 h trace sees several peaks and troughs.
	DayPeriod time.Duration
	// ChurnFrac is the fraction of volumes that churn: half of them
	// arrive mid-trace, half depart mid-trace.
	ChurnFrac float64
	// WriteFrac is the write fraction of volume traffic (the study
	// measures ~72% writes).
	WriteFrac float64
}

// DefaultCloudBlockConfig returns the production-scale configuration:
// 10k volumes over 400 tenants on 12 enclosures, calibrated to emit on
// the order of 100M records over the 6 h span.
func DefaultCloudBlockConfig() CloudBlockConfig {
	return CloudBlockConfig{
		Tenants:    400,
		Volumes:    10000,
		Enclosures: 12,
		Duration:   6 * time.Hour,
		Seed:       42,
		ZipfS:      1.1,
		DayPeriod:  2 * time.Hour,
		ChurnFrac:  0.30,
		WriteFrac:  0.72,
	}
}

// Scaled returns the configuration with the duration multiplied by f.
// Arrival behaviour per unit time is unchanged, so record volume scales
// ~linearly with f.
func (c CloudBlockConfig) Scaled(f float64) CloudBlockConfig {
	c.Duration = time.Duration(float64(c.Duration) * f)
	return c
}

// Validate reports whether the configuration is usable.
func (c CloudBlockConfig) Validate() error {
	if c.Tenants <= 0 || c.Volumes < c.Tenants || c.Enclosures <= 0 {
		return fmt.Errorf("workload: cloudblock config must have tenants, volumes >= tenants and enclosures")
	}
	if c.Duration < 4*time.Minute {
		return fmt.Errorf("workload: cloudblock duration %v too short to observe arrival structure", c.Duration)
	}
	if c.ZipfS <= 0 || c.DayPeriod <= 0 {
		return fmt.Errorf("workload: cloudblock zipf exponent and day period must be positive")
	}
	if c.ChurnFrac < 0 || c.ChurnFrac > 1 || c.WriteFrac < 0 || c.WriteFrac > 1 {
		return fmt.Errorf("workload: cloudblock churn and write fractions must be in [0,1]")
	}
	return nil
}

// volClass is a cloud volume's traffic class.
type volClass int

const (
	volHot volClass = iota
	volWarm
	volCold
)

// classOf assigns volume v its class deterministically (independent of
// any RNG stream, so changing a rate constant never reshuffles the
// population): ~2% hot, ~8% warm, rest cold, spread across tenants by
// the multiplicative hash. The steep skew is the production shape: a
// small P3 core carries nearly all traffic, and keeping its byte mass
// small is what lets the reorganisation finish moving it onto the hot
// enclosures within the trace.
func classOf(v int) volClass {
	h := uint32(v) * 2654435761 % 100
	switch {
	case h < 2:
		return volHot
	case h < 10:
		return volWarm
	default:
		return volCold
	}
}

// cloudProfile is one volume's arrival shape.
type cloudProfile struct {
	// peakGap is the mean inter-arrival at diurnal peak.
	peakGap time.Duration
	// burstProb is the per-arrival chance of a burst train; burstMaxN
	// its maximum length.
	burstProb float64
	burstMaxN int
	// phase shifts the tenant's diurnal cycle; depth is the peak-to-
	// trough swing in [0,1).
	phase float64
	depth float64
	// start/end bound the volume's life (churn).
	start, end time.Duration
	writeFrac  float64
	dayPeriod  time.Duration
}

// GenerateCloudBlock builds the cloud-block workload. The trace is
// open-loop: cloud volumes are driven by independent guest VMs, not one
// blocking application thread.
func GenerateCloudBlock(cfg CloudBlockConfig) (*Workload, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	cat := trace.NewCatalog()
	w := &Workload{
		Name:       "cloudblock",
		Catalog:    cat,
		ClosedLoop: false,
		Enclosures: cfg.Enclosures,
		Duration:   cfg.Duration,
	}

	counts := zipfCounts(cfg.Tenants, cfg.Volumes, cfg.ZipfS)
	used := make([]int64, cfg.Enclosures)
	var ss streams
	var placement []int

	v := 0
	for ten, n := range counts {
		// One diurnal phase per tenant: a tenant's guests share a time
		// zone, so its volumes peak together.
		phase := rng.Float64() * 2 * math.Pi
		for i := 0; i < n; i++ {
			class := classOf(v)
			var size int64
			p := cloudProfile{
				phase:     phase,
				depth:     0.45 + 0.25*rng.Float64(),
				start:     0,
				end:       cfg.Duration,
				writeFrac: cfg.WriteFrac,
				dayPeriod: cfg.DayPeriod,
			}
			switch class {
			case volHot:
				size = lognormBytes(rng, 2<<30, 0.7, 256<<20, 8<<30)
				p.peakGap = 30*time.Millisecond + time.Duration(rng.Int63n(int64(20*time.Millisecond)))
				p.burstProb, p.burstMaxN = 0.010, 48
			case volWarm:
				size = lognormBytes(rng, 1<<30, 0.7, 128<<20, 4<<30)
				p.peakGap = 2*time.Second + time.Duration(rng.Int63n(int64(2*time.Second)))
				p.burstProb, p.burstMaxN = 0.015, 32
			default:
				// Dormant archives: hour-scale gaps, because consolidation
				// only pays when a whole enclosure's worth of cold volumes
				// stays collectively quiet past the spin-down break-even.
				// ~830 volumes/enclosure divide the per-volume gap, so
				// minute-scale "cold" would still mean sub-second
				// enclosure-level traffic.
				size = lognormBytes(rng, 512<<20, 0.8, 64<<20, 2<<30)
				p.peakGap = 16*time.Hour + time.Duration(rng.Int63n(int64(16*time.Hour)))
				p.burstProb, p.burstMaxN = 0.02, 16
			}
			// Churn: half the churned volumes arrive mid-trace, half
			// depart mid-trace. Draws come from the master RNG at planning
			// time so the streams stay independently re-iterable.
			if churn := rng.Float64(); churn < cfg.ChurnFrac {
				frac := 0.2 + 0.6*rng.Float64()
				if churn < cfg.ChurnFrac/2 {
					p.start = time.Duration(frac * float64(cfg.Duration))
				} else {
					p.end = time.Duration(frac * float64(cfg.Duration))
				}
			}

			id := cat.Add(fmt.Sprintf("t%03d/vol%05d", ten, v), size)
			placement = append(placement, placeLeastLoaded(used, size))
			vsize := size
			prof := p
			ss.lazy(id, 0, rng.Int63(), func(rng *rand.Rand, emit emitFunc) {
				genCloudVolume(rng, emit, vsize, prof)
			})
			v++
		}
	}
	w.Placement = placement
	w.Streams = ss.list
	return w, nil
}

// zipfCounts splits total volumes over tenants proportionally to
// 1/(k+1)^s, giving leftovers to the heaviest tenants. Every tenant
// owns at least one volume (total >= tenants is validated).
func zipfCounts(tenants, total int, s float64) []int {
	weights := make([]float64, tenants)
	var sum float64
	for k := range weights {
		weights[k] = 1 / math.Pow(float64(k+1), s)
		sum += weights[k]
	}
	counts := make([]int, tenants)
	assigned := 0
	for k := range counts {
		counts[k] = 1 + int(weights[k]/sum*float64(total-tenants))
		assigned += counts[k]
	}
	for k := 0; assigned < total; k = (k + 1) % tenants {
		counts[k]++
		assigned++
	}
	for k := 0; assigned > total; k = (k + 1) % tenants {
		if counts[k] > 1 {
			counts[k]--
			assigned--
		}
	}
	return counts
}

// placeLeastLoaded assigns a volume to the enclosure with the fewest
// provisioned bytes — the arrival-order greedy a real provisioner uses,
// which mixes hot and cold volumes on every enclosure (the layout the
// paper's logical reorganisation then improves on).
func placeLeastLoaded(used []int64, size int64) int {
	best := 0
	for e := 1; e < len(used); e++ {
		if used[e] < used[best] {
			best = e
		}
	}
	used[best] += size
	return best
}

// diurnal returns the thinning probability at simulated time t: 1 at
// the tenant's daily peak, 1-depth at the trough.
func (p *cloudProfile) diurnal(t time.Duration) float64 {
	day := 2 * math.Pi * float64(t) / float64(p.dayPeriod)
	return 1 - p.depth*(0.5+0.5*math.Cos(day+p.phase))
}

// genCloudVolume emits one volume's arrivals: exponential gaps at the
// class's peak rate, thinned by the tenant's diurnal curve, with
// occasional short burst trains, between the volume's churn bounds.
// Writes are skewed to the volume's front hot region; reads spread over
// the whole disk.
func genCloudVolume(rng *rand.Rand, emit emitFunc, size int64, p cloudProfile) {
	if p.end <= p.start {
		return
	}
	t := p.start + expDur(rng, p.peakGap)
	for t < p.end {
		// Thinning: every candidate arrival costs one uniform draw, so
		// the accepted process is an inhomogeneous Poisson process on the
		// simulated clock, deterministic for the volume's seed.
		if rng.Float64() <= p.diurnal(t) {
			if !emitCloudIO(rng, emit, t, size, p.writeFrac) {
				return
			}
			if rng.Float64() < p.burstProb {
				n := 4 + rng.Intn(p.burstMaxN-3)
				bt := t
				for i := 0; i < n; i++ {
					bt += time.Millisecond + expDur(rng, 4*time.Millisecond)
					if bt >= p.end {
						break
					}
					if !emitCloudIO(rng, emit, bt, size, p.writeFrac) {
						return
					}
				}
				if bt > t {
					t = bt
				}
			}
		}
		t += expDur(rng, p.peakGap)
	}
}

// emitCloudIO draws one I/O's op, size and offset and emits it.
func emitCloudIO(rng *rand.Rand, emit emitFunc, t time.Duration, size int64, writeFrac float64) bool {
	if rng.Float64() < writeFrac {
		// Small writes dominate; ~70% land in the front hot region
		// (journals, metadata, appends).
		var n int32 = 4 << 10
		if rng.Float64() < 0.3 {
			n = 16 << 10
		}
		region := size
		if rng.Float64() < 0.7 {
			region = size / 8
			if region < int64(n) {
				region = size
			}
		}
		return emit(t, randOffset(rng, region, n), n, trace.OpWrite)
	}
	var n int32
	switch r := rng.Float64(); {
	case r < 0.5:
		n = 16 << 10
	case r < 0.9:
		n = 64 << 10
	default:
		n = 256 << 10
	}
	return emit(t, randOffset(rng, size, n), n, trace.OpRead)
}
