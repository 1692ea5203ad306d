package faults

import (
	"testing"
	"time"
)

func TestParseSpecFull(t *testing.T) {
	c, err := ParseSpec("seed=42,spinup=0.2,spinup-retries=4,spinup-backoff=1s,io=0.01,io-delay=100ms,battery=10m:25m")
	if err != nil {
		t.Fatal(err)
	}
	want := Config{
		Seed:             42,
		SpinUpFailProb:   0.2,
		SpinUpMaxRetries: 4,
		SpinUpBackoff:    time.Second,
		TransientIOProb:  0.01,
		TransientIODelay: 100 * time.Millisecond,
		BatteryFailAt:    10 * time.Minute,
		BatteryRecoverAt: 25 * time.Minute,
	}
	if *c != want {
		t.Fatalf("parsed %+v, want %+v", *c, want)
	}
}

func TestParseSpecBatteryWithoutRecovery(t *testing.T) {
	c, err := ParseSpec("battery=5m")
	if err != nil {
		t.Fatal(err)
	}
	if c.BatteryFailAt != 5*time.Minute || c.BatteryRecoverAt != 0 {
		t.Fatalf("battery window %v:%v", c.BatteryFailAt, c.BatteryRecoverAt)
	}
}

func TestParseSpecErrors(t *testing.T) {
	for _, spec := range []string{
		"",
		"   ",
		"spinup",            // not key=value
		"bogus=1",           // unknown key
		"spinup=nan2",       // bad float
		"spinup=1.5",        // probability out of range
		"io=-0.1",           // probability out of range
		"spinup-retries=-1", // negative retries
		"spinup-backoff=-1s",
		"battery=10m:5m", // recovery before failure
		"battery=xyz",
	} {
		if _, err := ParseSpec(spec); err == nil {
			t.Errorf("ParseSpec(%q) accepted", spec)
		}
	}
}

func TestStringRoundTrips(t *testing.T) {
	c, err := ParseSpec("seed=7,spinup=0.25,io=0.5,battery=1m:2m")
	if err != nil {
		t.Fatal(err)
	}
	back, err := ParseSpec(c.String())
	if err != nil {
		t.Fatalf("reparse %q: %v", c.String(), err)
	}
	if *back != *c {
		t.Fatalf("round-trip %+v != %+v", *back, *c)
	}
}

func TestSeededDeterminism(t *testing.T) {
	cfg := Config{Seed: 99, SpinUpFailProb: 0.3, TransientIOProb: 0.2}
	draw := func() ([]bool, Counters) {
		in, err := NewInjector(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var seq []bool
		for i := 0; i < 200; i++ {
			seq = append(seq, in.SpinUpAttemptFails(time.Duration(i), i%4, 1))
			seq = append(seq, in.TransientIO(time.Duration(i), i%4))
		}
		return seq, in.Counters()
	}
	s1, c1 := draw()
	s2, c2 := draw()
	if c1 != c2 {
		t.Fatalf("counters diverged: %+v vs %+v", c1, c2)
	}
	if c1.SpinUpFailures == 0 || c1.TransientIOErrors == 0 {
		t.Fatalf("no faults drawn at all: %+v", c1)
	}
	for i := range s1 {
		if s1[i] != s2[i] {
			t.Fatalf("draw %d diverged", i)
		}
	}
}

func TestDifferentSeedsDiverge(t *testing.T) {
	seq := func(seed int64) []bool {
		in, _ := NewInjector(Config{Seed: seed, SpinUpFailProb: 0.5})
		var s []bool
		for i := 0; i < 64; i++ {
			s = append(s, in.SpinUpAttemptFails(0, 0, 1))
		}
		return s
	}
	a, b := seq(1), seq(2)
	same := true
	for i := range a {
		if a[i] != b[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("seeds 1 and 2 drew identical 64-draw sequences")
	}
}

func TestBackoffGrowsExponentially(t *testing.T) {
	in, err := NewInjector(Config{SpinUpBackoff: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if got := in.SpinUpBackoff(1); got != time.Second {
		t.Fatalf("attempt 1 backoff %v", got)
	}
	if got := in.SpinUpBackoff(2); got != 2*time.Second {
		t.Fatalf("attempt 2 backoff %v", got)
	}
	if got := in.SpinUpBackoff(3); got != 4*time.Second {
		t.Fatalf("attempt 3 backoff %v", got)
	}
	// Growth is capped: gigantic attempt numbers must not overflow.
	if got := in.SpinUpBackoff(200); got <= 0 || got > 2*time.Hour {
		t.Fatalf("attempt 200 backoff %v", got)
	}
}

func TestDefaultsApplied(t *testing.T) {
	in, err := NewInjector(Config{SpinUpFailProb: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	if in.MaxSpinUpAttempts() != 1+DefaultSpinUpMaxRetries {
		t.Fatalf("max attempts %d", in.MaxSpinUpAttempts())
	}
	if in.SpinUpBackoff(1) != DefaultSpinUpBackoff {
		t.Fatalf("backoff %v", in.SpinUpBackoff(1))
	}
	if in.TransientIODelay() != DefaultTransientIODelay {
		t.Fatalf("io delay %v", in.TransientIODelay())
	}
}

func TestNilInjectorIsDisabled(t *testing.T) {
	var in *Injector
	if in.SpinUpAttemptFails(0, 0, 1) || in.TransientIO(0, 0) {
		t.Fatal("nil injector injected a fault")
	}
	if in.MaxSpinUpAttempts() != 1 {
		t.Fatalf("nil max attempts %d", in.MaxSpinUpAttempts())
	}
	if in.SpinUpBackoff(3) != 0 || in.TransientIODelay() != 0 {
		t.Fatal("nil injector returned non-zero delays")
	}
	if _, _, ok := in.BatteryWindow(); ok {
		t.Fatal("nil injector has a battery window")
	}
	// Mutators must be no-ops, not panics.
	in.SetObserver(func(Event) {})
	in.SpinUpExhausted(0, 0)
	in.BatteryFailed(0)
	in.BatteryRecovered(0)
	in.CountFailedAppIO()
	in.CountFailedMigration()
	in.CountFailedFlush()
	in.CountFailedPreload()
	if c := in.Counters(); c != (Counters{}) {
		t.Fatalf("nil counters %+v", c)
	}
}

func TestObserverSeesEveryFault(t *testing.T) {
	in, err := NewInjector(Config{Seed: 3, SpinUpFailProb: 1})
	if err != nil {
		t.Fatal(err)
	}
	var events []Event
	in.SetObserver(func(ev Event) { events = append(events, ev) })
	if !in.SpinUpAttemptFails(time.Minute, 2, 1) {
		t.Fatal("probability 1 attempt did not fail")
	}
	in.SpinUpExhausted(2*time.Minute, 2)
	in.BatteryFailed(3 * time.Minute)
	in.BatteryRecovered(4 * time.Minute)
	want := []Event{
		{T: time.Minute, Kind: KindSpinUpFail, Enclosure: 2, Attempt: 1},
		{T: 2 * time.Minute, Kind: KindSpinUpExhausted, Enclosure: 2},
		{T: 3 * time.Minute, Kind: KindBatteryFail, Enclosure: -1},
		{T: 4 * time.Minute, Kind: KindBatteryRecover, Enclosure: -1},
	}
	if len(events) != len(want) {
		t.Fatalf("saw %d events, want %d", len(events), len(want))
	}
	for i := range want {
		if events[i] != want[i] {
			t.Fatalf("event %d = %+v, want %+v", i, events[i], want[i])
		}
	}
	c := in.Counters()
	if c.Total() != 4 || c.SpinUpFailures != 1 || c.SpinUpExhausted != 1 ||
		c.BatteryFailures != 1 || c.BatteryRecoveries != 1 {
		t.Fatalf("counters %+v", c)
	}
}

func TestValidateRejectsBadConfigs(t *testing.T) {
	bad := []Config{
		{SpinUpFailProb: -0.5},
		{SpinUpFailProb: 2},
		{TransientIOProb: 1.1},
		{SpinUpMaxRetries: -2},
		{SpinUpBackoff: -time.Second},
		{TransientIODelay: -time.Millisecond},
		{BatteryFailAt: -time.Minute},
		{BatteryFailAt: 2 * time.Minute, BatteryRecoverAt: time.Minute},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("config %d (%+v) accepted", i, c)
		}
		if _, err := NewInjector(c); err == nil {
			t.Errorf("NewInjector accepted config %d", i)
		}
	}
}
