// Generic synthetic workload: a configurable mix of steady and bursty
// items for tests, examples and ablation studies.

package workload

import (
	"fmt"
	"math/rand"
	"time"

	"esm/internal/trace"
)

// SyntheticConfig parameterises the generic generator.
type SyntheticConfig struct {
	// Enclosures is the enclosure count.
	Enclosures int
	// SteadyItems are continuously accessed items (classify P3).
	SteadyItems int
	// SteadyIOPS is the rate per steady item.
	SteadyIOPS float64
	// BurstItems are items accessed in occasional bursts (classify P1 or
	// P2 depending on BurstReadFrac).
	BurstItems int
	// BurstEvery is the mean gap between an item's bursts; it must exceed
	// the break-even time for the items to classify P1/P2.
	BurstEvery time.Duration
	// BurstLen is the number of I/Os per burst.
	BurstLen int
	// BurstReadFrac is the read fraction of burst I/Os.
	BurstReadFrac float64
	// IdleItems are items never accessed (classify P0).
	IdleItems int
	// ItemBytes is the size of every item.
	ItemBytes int64
	// Duration is the trace length.
	Duration time.Duration
	// Seed makes the trace deterministic.
	Seed int64
}

// DefaultSyntheticConfig returns a small mixed workload.
func DefaultSyntheticConfig() SyntheticConfig {
	return SyntheticConfig{
		Enclosures:    4,
		SteadyItems:   4,
		SteadyIOPS:    50,
		BurstItems:    12,
		BurstEvery:    5 * time.Minute,
		BurstLen:      30,
		BurstReadFrac: 0.9,
		IdleItems:     4,
		ItemBytes:     1 << 30,
		Duration:      time.Hour,
		Seed:          1,
	}
}

// Validate reports whether the configuration is usable.
func (c SyntheticConfig) Validate() error {
	if c.Enclosures <= 0 || c.ItemBytes <= 0 || c.Duration <= 0 {
		return fmt.Errorf("workload: synthetic config must be positive")
	}
	if c.SteadyItems < 0 || c.BurstItems < 0 || c.IdleItems < 0 {
		return fmt.Errorf("workload: synthetic item counts must be non-negative")
	}
	return nil
}

// GenerateSynthetic builds the synthetic workload. Items are spread
// round-robin over the enclosures.
func GenerateSynthetic(cfg SyntheticConfig) (*Workload, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	cat := trace.NewCatalog()
	w := &Workload{
		Name:       "synthetic",
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

	for i := 0; i < cfg.SteadyItems; i++ {
		id := cat.Add(fmt.Sprintf("steady%03d", i), cfg.ItemBytes)
		placement = append(placement, place())
		ss.lazy(id, 0, rng.Int63(), func(rng *rand.Rand, emit emitFunc) {
			genContinuous(rng, emit, cfg.ItemBytes, cfg.Duration, cfg.SteadyIOPS, 0.6, 8<<10)
		})
	}
	for i := 0; i < cfg.BurstItems; i++ {
		id := cat.Add(fmt.Sprintf("burst%03d", i), cfg.ItemBytes)
		placement = append(placement, place())
		ss.lazy(id, 0, rng.Int63(), func(rng *rand.Rand, emit emitFunc) {
			t := expDur(rng, cfg.BurstEvery)
			for t < cfg.Duration {
				for j := 0; j < cfg.BurstLen && t < cfg.Duration; j++ {
					op := trace.OpRead
					if rng.Float64() >= cfg.BurstReadFrac {
						op = trace.OpWrite
					}
					if !emit(t, randOffset(rng, cfg.ItemBytes, 8<<10), 8<<10, op) {
						return
					}
					t += expDur(rng, 300*time.Millisecond)
				}
				t += 70*time.Second + expDur(rng, cfg.BurstEvery)
			}
		})
	}
	for i := 0; i < cfg.IdleItems; i++ {
		cat.Add(fmt.Sprintf("idle%03d", i), cfg.ItemBytes)
		placement = append(placement, place())
	}
	w.Placement = placement
	w.Streams = ss.list
	return w, nil
}
