// Package faults is the deterministic fault-injection layer of the
// storage simulator. A seed-driven Injector decides, in simulation
// order, whether each enclosure spin-up attempt fails (the array retries
// with exponential backoff on the simulated clock), whether a physical
// I/O suffers a transient error (the enclosure retries it internally),
// and when the battery backing the storage cache is lost and recovered
// (the array destages immediately and disables the preload and
// write-delay functions until recovery).
//
// Two runs with the same Config — seed included — draw the same fault
// sequence, so faulted experiments are exactly reproducible and
// regressions diff cleanly.
//
// A nil *Injector is a valid, fully disabled injector: every method
// nil-checks its receiver, so fault-free simulations pay one pointer
// comparison per probe.
package faults

import (
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"time"
)

// Kind names a fault class.
type Kind string

// The fault vocabulary.
const (
	// KindSpinUpFail: one spin-up attempt failed; the enclosure backs
	// off and retries.
	KindSpinUpFail Kind = "spinup-fail"
	// KindSpinUpExhausted: every spin-up retry failed; the I/O that
	// needed the enclosure is abandoned.
	KindSpinUpExhausted Kind = "spinup-exhausted"
	// KindTransientIO: a physical I/O hit a transient enclosure error
	// and was retried internally after a short delay.
	KindTransientIO Kind = "io-transient"
	// KindBatteryFail: the cache battery was lost; dirty data is
	// destaged immediately and the cache functions are disabled.
	KindBatteryFail Kind = "battery-fail"
	// KindBatteryRecover: the cache battery is back; the cache
	// functions re-enable at the next policy determination.
	KindBatteryRecover Kind = "battery-recover"
)

// Event describes one injected fault on the simulated timeline.
type Event struct {
	// T is the virtual time of the fault.
	T time.Duration
	// Kind is the fault class.
	Kind Kind
	// Enclosure is the affected enclosure, or -1 for battery faults.
	Enclosure int
	// Attempt is the 1-based spin-up attempt number for spin-up faults.
	Attempt int
}

// Config describes a fault scenario. The zero value injects nothing;
// NewInjector fills the retry/backoff knobs with defaults when left
// zero, so a spec only states the fault load.
type Config struct {
	// Seed drives the injector's random draws. Runs with equal seeds
	// (and equal workloads) produce identical fault sequences.
	Seed int64
	// SpinUpFailProb is the probability that one spin-up attempt fails.
	SpinUpFailProb float64
	// SpinUpMaxRetries bounds the retries after a failed first attempt;
	// when they are exhausted the I/O fails with a storage fault error.
	// Zero means DefaultSpinUpMaxRetries.
	SpinUpMaxRetries int
	// SpinUpBackoff is the backoff before the first retry; it doubles
	// per attempt. Zero means DefaultSpinUpBackoff.
	SpinUpBackoff time.Duration
	// TransientIOProb is the probability that a physical I/O suffers a
	// transient error. The enclosure retries it internally: the I/O
	// occupies its server twice plus TransientIODelay.
	TransientIOProb float64
	// TransientIODelay is the internal retry delay of a transient I/O
	// error. Zero means DefaultTransientIODelay.
	TransientIODelay time.Duration
	// BatteryFailAt, when positive, is the virtual time the cache
	// battery is lost. BatteryRecoverAt, when greater, is when it comes
	// back; zero means it never recovers.
	BatteryFailAt    time.Duration
	BatteryRecoverAt time.Duration
}

// Retry/backoff defaults, used when the Config leaves them zero.
const (
	DefaultSpinUpMaxRetries = 6
	DefaultSpinUpBackoff    = 2 * time.Second
	DefaultTransientIODelay = 50 * time.Millisecond
)

// withDefaults returns c with zero retry knobs replaced by defaults.
func (c Config) withDefaults() Config {
	if c.SpinUpMaxRetries == 0 {
		c.SpinUpMaxRetries = DefaultSpinUpMaxRetries
	}
	if c.SpinUpBackoff == 0 {
		c.SpinUpBackoff = DefaultSpinUpBackoff
	}
	if c.TransientIODelay == 0 {
		c.TransientIODelay = DefaultTransientIODelay
	}
	return c
}

// Validate reports whether the scenario is usable.
func (c Config) Validate() error {
	switch {
	case c.SpinUpFailProb < 0 || c.SpinUpFailProb > 1:
		return fmt.Errorf("faults: SpinUpFailProb %v out of [0,1]", c.SpinUpFailProb)
	case c.TransientIOProb < 0 || c.TransientIOProb > 1:
		return fmt.Errorf("faults: TransientIOProb %v out of [0,1]", c.TransientIOProb)
	case c.SpinUpMaxRetries < 0:
		return fmt.Errorf("faults: SpinUpMaxRetries %d < 0", c.SpinUpMaxRetries)
	case c.SpinUpBackoff < 0 || c.TransientIODelay < 0:
		return fmt.Errorf("faults: delays must be non-negative")
	case c.BatteryFailAt < 0 || c.BatteryRecoverAt < 0:
		return fmt.Errorf("faults: battery times must be non-negative")
	case c.BatteryRecoverAt > 0 && c.BatteryRecoverAt <= c.BatteryFailAt:
		return fmt.Errorf("faults: battery recovery %v not after failure %v", c.BatteryRecoverAt, c.BatteryFailAt)
	}
	return nil
}

// String renders the scenario in ParseSpec syntax.
func (c Config) String() string {
	parts := []string{fmt.Sprintf("seed=%d", c.Seed)}
	if c.SpinUpFailProb > 0 {
		parts = append(parts, fmt.Sprintf("spinup=%g", c.SpinUpFailProb))
	}
	if c.TransientIOProb > 0 {
		parts = append(parts, fmt.Sprintf("io=%g", c.TransientIOProb))
	}
	if c.BatteryFailAt > 0 {
		b := "battery=" + c.BatteryFailAt.String()
		if c.BatteryRecoverAt > 0 {
			b += ":" + c.BatteryRecoverAt.String()
		}
		parts = append(parts, b)
	}
	return strings.Join(parts, ",")
}

// ParseSpec parses a command-line fault scenario of comma-separated
// key=value pairs:
//
//	seed=42            RNG seed (default 0)
//	spinup=0.2         spin-up attempt failure probability
//	spinup-retries=4   retries before the I/O is abandoned
//	spinup-backoff=1s  first retry backoff (doubles per attempt)
//	io=0.01            transient physical-I/O error probability
//	io-delay=100ms     internal retry delay of a transient error
//	battery=10m:25m    cache-battery loss window (fail[:recover])
func ParseSpec(spec string) (*Config, error) {
	var c Config
	if strings.TrimSpace(spec) == "" {
		return nil, fmt.Errorf("faults: empty scenario spec")
	}
	for _, kv := range strings.Split(spec, ",") {
		key, val, ok := strings.Cut(strings.TrimSpace(kv), "=")
		if !ok {
			return nil, fmt.Errorf("faults: %q is not key=value", kv)
		}
		var err error
		switch key {
		case "seed":
			c.Seed, err = strconv.ParseInt(val, 10, 64)
		case "spinup":
			c.SpinUpFailProb, err = strconv.ParseFloat(val, 64)
		case "spinup-retries":
			c.SpinUpMaxRetries, err = strconv.Atoi(val)
		case "spinup-backoff":
			c.SpinUpBackoff, err = time.ParseDuration(val)
		case "io":
			c.TransientIOProb, err = strconv.ParseFloat(val, 64)
		case "io-delay":
			c.TransientIODelay, err = time.ParseDuration(val)
		case "battery":
			fail, recover, hasRec := strings.Cut(val, ":")
			c.BatteryFailAt, err = time.ParseDuration(fail)
			if err == nil && hasRec {
				c.BatteryRecoverAt, err = time.ParseDuration(recover)
			}
		default:
			return nil, fmt.Errorf("faults: unknown key %q", key)
		}
		if err != nil {
			return nil, fmt.Errorf("faults: bad value for %q: %v", key, err)
		}
	}
	if err := c.Validate(); err != nil {
		return nil, err
	}
	return &c, nil
}

// Counters aggregates the fault outcomes of one run. The storage layer
// fills the injection counters; failed-operation counters are filled at
// the site that abandons the operation.
type Counters struct {
	// SpinUpFailures counts failed spin-up attempts (each backed off
	// and retried); SpinUpExhausted counts I/Os abandoned after every
	// retry failed.
	SpinUpFailures  int64
	SpinUpExhausted int64
	// TransientIOErrors counts physical I/Os that hit a transient error
	// and were retried internally.
	TransientIOErrors int64
	// BatteryFailures and BatteryRecoveries count cache-battery
	// transitions (0 or 1 each under the single scheduled window).
	BatteryFailures   int64
	BatteryRecoveries int64
	// FailedAppIOs counts application I/Os that returned an error;
	// FailedMigrations, FailedFlushes and FailedPreloads count
	// background operations abandoned on enclosure unavailability.
	FailedAppIOs     int64
	FailedMigrations int64
	FailedFlushes    int64
	FailedPreloads   int64
}

// Total returns the number of injected faults (not failed operations).
func (c Counters) Total() int64 {
	return c.SpinUpFailures + c.SpinUpExhausted + c.TransientIOErrors +
		c.BatteryFailures + c.BatteryRecoveries
}

// Injector draws the fault sequence for one simulation run. It is not
// safe for concurrent use: the simulator is single-goroutine per run,
// and sharing an injector across runs would break reproducibility.
type Injector struct {
	cfg Config
	rng *rand.Rand
	ctr Counters
	obs func(Event)
}

// NewInjector builds an injector for the scenario.
func NewInjector(cfg Config) (*Injector, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	return &Injector{cfg: cfg, rng: rand.New(rand.NewSource(cfg.Seed))}, nil
}

// Counters returns a snapshot of the fault counters.
func (in *Injector) Counters() Counters {
	if in == nil {
		return Counters{}
	}
	return in.ctr
}

// SetObserver installs a callback invoked for every injected fault, in
// simulation order. The storage array forwards it to the telemetry
// recorder and the policy.
func (in *Injector) SetObserver(fn func(Event)) {
	if in != nil {
		in.obs = fn
	}
}

// report counts and publishes one fault event.
func (in *Injector) report(ev Event) {
	if in.obs != nil {
		in.obs(ev)
	}
}

// SpinUpAttemptFails draws whether the 1-based spin-up attempt of
// enclosure enc at time t fails.
func (in *Injector) SpinUpAttemptFails(t time.Duration, enc, attempt int) bool {
	if in == nil || in.cfg.SpinUpFailProb <= 0 {
		return false
	}
	if in.rng.Float64() >= in.cfg.SpinUpFailProb {
		return false
	}
	in.ctr.SpinUpFailures++
	in.report(Event{T: t, Kind: KindSpinUpFail, Enclosure: enc, Attempt: attempt})
	return true
}

// MaxSpinUpAttempts returns how many attempts (first try + retries) a
// spin-up gets before the I/O is abandoned.
func (in *Injector) MaxSpinUpAttempts() int {
	if in == nil {
		return 1
	}
	return 1 + in.cfg.SpinUpMaxRetries
}

// SpinUpBackoff returns the backoff before the retry following the
// 1-based failed attempt: base << (attempt-1), exponential growth.
func (in *Injector) SpinUpBackoff(attempt int) time.Duration {
	if in == nil {
		return 0
	}
	d := in.cfg.SpinUpBackoff
	for i := 1; i < attempt && d < time.Hour; i++ {
		d *= 2
	}
	return d
}

// SpinUpExhausted records an I/O abandoned after every spin-up retry
// failed.
func (in *Injector) SpinUpExhausted(t time.Duration, enc int) {
	if in == nil {
		return
	}
	in.ctr.SpinUpExhausted++
	in.report(Event{T: t, Kind: KindSpinUpExhausted, Enclosure: enc})
}

// TransientIO draws whether a physical I/O on enclosure enc at time t
// hits a transient error.
func (in *Injector) TransientIO(t time.Duration, enc int) bool {
	if in == nil || in.cfg.TransientIOProb <= 0 {
		return false
	}
	if in.rng.Float64() >= in.cfg.TransientIOProb {
		return false
	}
	in.ctr.TransientIOErrors++
	in.report(Event{T: t, Kind: KindTransientIO, Enclosure: enc})
	return true
}

// TransientIODelay returns the internal retry delay of a transient I/O
// error.
func (in *Injector) TransientIODelay() time.Duration {
	if in == nil {
		return 0
	}
	return in.cfg.TransientIODelay
}

// BatteryWindow returns the scheduled cache-battery loss window. ok is
// false when the scenario has none; recover is zero when the battery
// never comes back.
func (in *Injector) BatteryWindow() (fail, recover time.Duration, ok bool) {
	if in == nil || in.cfg.BatteryFailAt <= 0 {
		return 0, 0, false
	}
	return in.cfg.BatteryFailAt, in.cfg.BatteryRecoverAt, true
}

// BatteryFailed records the battery loss taking effect.
func (in *Injector) BatteryFailed(t time.Duration) {
	if in == nil {
		return
	}
	in.ctr.BatteryFailures++
	in.report(Event{T: t, Kind: KindBatteryFail, Enclosure: -1})
}

// BatteryRecovered records the battery coming back.
func (in *Injector) BatteryRecovered(t time.Duration) {
	if in == nil {
		return
	}
	in.ctr.BatteryRecoveries++
	in.report(Event{T: t, Kind: KindBatteryRecover, Enclosure: -1})
}

// CountFailedAppIO counts one application I/O that returned an error.
func (in *Injector) CountFailedAppIO() {
	if in != nil {
		in.ctr.FailedAppIOs++
	}
}

// CountFailedMigration counts one migration abandoned on a fault.
func (in *Injector) CountFailedMigration() {
	if in != nil {
		in.ctr.FailedMigrations++
	}
}

// CountFailedFlush counts one write-delay destage kept in cache because
// its enclosure was unavailable.
func (in *Injector) CountFailedFlush() {
	if in != nil {
		in.ctr.FailedFlushes++
	}
}

// CountFailedPreload counts one preload bulk read abandoned on a fault.
func (in *Injector) CountFailedPreload() {
	if in != nil {
		in.ctr.FailedPreloads++
	}
}
