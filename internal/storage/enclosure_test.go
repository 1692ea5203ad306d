package storage

import (
	"math"
	"testing"
	"time"

	"esm/internal/obs"
	"esm/internal/powermodel"
)

func testEnclosure(t *testing.T) (*enclosure, *Config) {
	t.Helper()
	cfg := DefaultConfig(1)
	e := newEnclosure(0, &cfg)
	return e, &cfg
}

func TestEnclosureIdleEnergyWithoutSpindown(t *testing.T) {
	e, cfg := testEnclosure(t)
	e.sync(time.Hour)
	wantJ := cfg.Power.IdleW * 3600
	if math.Abs(e.acc.EnergyJ()-wantJ) > 1 {
		t.Fatalf("idle hour = %v J, want %v", e.acc.EnergyJ(), wantJ)
	}
	if !e.on {
		t.Fatal("enclosure should stay on without spin-down enabled")
	}
}

func TestEnclosureSpinsDownAfterTimeout(t *testing.T) {
	e, cfg := testEnclosure(t)
	e.setSpinDown(0, true)
	e.sync(time.Hour)
	if e.on {
		t.Fatal("enclosure should have powered off")
	}
	idle := cfg.SpinDownTimeout
	wantJ := cfg.Power.IdleW*idle.Seconds() + cfg.Power.OffW*(time.Hour-idle).Seconds()
	if math.Abs(e.acc.EnergyJ()-wantJ) > 1 {
		t.Fatalf("energy %v J, want %v", e.acc.EnergyJ(), wantJ)
	}
	if e.acc.InState(powermodel.Off) != time.Hour-idle {
		t.Fatalf("off residency %v", e.acc.InState(powermodel.Off))
	}
}

func TestEnclosureSpinDownTimerResetsOnIO(t *testing.T) {
	e, cfg := testEnclosure(t)
	e.setSpinDown(0, true)
	// I/O at 40s: the timer restarts from the completion.
	e.arrival(40*time.Second, 0, 8<<10, false, kindApp, new(arrivalInfo))
	e.sync(60 * time.Second)
	if !e.on {
		t.Fatal("enclosure powered off before timeout elapsed after I/O")
	}
	e.sync(40*time.Second + cfg.SpinDownTimeout + 10*time.Second)
	if e.on {
		t.Fatal("enclosure should have powered off after post-I/O timeout")
	}
}

func TestEnclosureSpinUpDelaysService(t *testing.T) {
	e, cfg := testEnclosure(t)
	e.setSpinDown(0, true)
	e.sync(10 * time.Minute) // off by now
	if e.on {
		_ = e
	}
	start := 10 * time.Minute
	end, _ := e.arrival(start, 0, 8<<10, false, kindApp, new(arrivalInfo))
	wait := end - start
	if wait < cfg.Power.SpinUpTime {
		t.Fatalf("response %v shorter than spin-up %v", wait, cfg.Power.SpinUpTime)
	}
	if !e.on {
		t.Fatal("arrival should spin the enclosure up")
	}
	if e.acc.SpinUps() != 1 {
		t.Fatalf("spinups %d", e.acc.SpinUps())
	}
	if e.acc.InState(powermodel.SpinUp) != cfg.Power.SpinUpTime {
		t.Fatalf("spin-up residency %v", e.acc.InState(powermodel.SpinUp))
	}
}

func TestEnclosurePowerEventCallback(t *testing.T) {
	e, cfg := testEnclosure(t)
	var events []bool
	var times []time.Duration
	e.powerEvent = func(enc int, at time.Duration, on bool, cause obs.Cause) {
		events = append(events, on)
		times = append(times, at)
	}
	e.setSpinDown(0, true)
	e.sync(5 * time.Minute)
	e.arrival(5*time.Minute, 0, 8<<10, false, kindApp, new(arrivalInfo))
	if len(events) != 2 || events[0] != false || events[1] != true {
		t.Fatalf("power events %v", events)
	}
	if times[0] != cfg.SpinDownTimeout {
		t.Fatalf("power-off at %v, want %v", times[0], cfg.SpinDownTimeout)
	}
}

func TestEnclosureRandomServiceRateMatchesIOPSCeiling(t *testing.T) {
	e, cfg := testEnclosure(t)
	// Saturate with random I/O for a simulated minute and check the
	// completion throughput approaches RandomIOPS.
	n := 0
	for end := time.Duration(0); end < time.Minute; n++ {
		end, _ = e.arrival(0, int64(n)*1<<30, 8<<10, false, kindApp, new(arrivalInfo))
	}
	got := float64(n) / 60
	if got < cfg.RandomIOPS*0.85 || got > cfg.RandomIOPS*1.15 {
		t.Fatalf("sustained random rate %.0f IOPS, ceiling %v", got, cfg.RandomIOPS)
	}
}

func TestEnclosureSequentialFasterThanRandom(t *testing.T) {
	e, _ := testEnclosure(t)
	if e.serviceTime(64<<10, true) >= e.serviceTime(64<<10, false) {
		t.Fatal("sequential service not faster than random")
	}
}

func TestSequentialDetection(t *testing.T) {
	e, _ := testEnclosure(t)
	if e.isSequential(0, 64<<10) {
		t.Fatal("first I/O misdetected as sequential")
	}
	if !e.isSequential(64<<10, 64<<10) {
		t.Fatal("contiguous I/O not detected as sequential")
	}
	// A second interleaved stream is still tracked.
	if e.isSequential(1<<40, 64<<10) {
		t.Fatal("new stream start misdetected")
	}
	if !e.isSequential(1<<40+64<<10, 64<<10) {
		t.Fatal("second stream not tracked")
	}
	if !e.isSequential(128<<10, 64<<10) {
		t.Fatal("first stream lost after interleaving")
	}
}

func TestEnclosureQueueing(t *testing.T) {
	e, cfg := testEnclosure(t)
	// Fill all servers at t=0, then one more I/O must wait.
	var firstEnd time.Duration
	for i := 0; i < cfg.ServersPerEnclosure; i++ {
		firstEnd, _ = e.arrival(0, int64(i)<<30, 8<<10, false, kindApp, new(arrivalInfo))
	}
	end, _ := e.arrival(0, 1<<40, 8<<10, false, kindApp, new(arrivalInfo))
	if end <= firstEnd {
		t.Fatalf("queued I/O finished at %v, not after %v", end, firstEnd)
	}
}

func TestEnclosureActiveResidencyTracksBusyTime(t *testing.T) {
	e, _ := testEnclosure(t)
	end, _ := e.arrival(0, 0, 8<<10, false, kindApp, new(arrivalInfo))
	e.sync(time.Minute)
	if got := e.acc.InState(powermodel.Active); got != end {
		t.Fatalf("active residency %v, want %v", got, end)
	}
}

func TestIdleSince(t *testing.T) {
	e, _ := testEnclosure(t)
	end, _ := e.arrival(0, 0, 8<<10, false, kindApp, new(arrivalInfo))
	if _, ok := e.idleSince(end / 2); ok {
		t.Fatal("busy enclosure reported idle")
	}
	since, ok := e.idleSince(end + time.Second)
	if !ok || since != end {
		t.Fatalf("idleSince = %v,%v, want %v,true", since, ok, end)
	}
	e.setSpinDown(end+time.Second, true)
	e.sync(end + 10*time.Minute)
	if _, ok := e.idleSince(end + 10*time.Minute); ok {
		t.Fatal("off enclosure reported idle")
	}
}

func TestSpinDownEnabledLateTurnsOffImmediately(t *testing.T) {
	e, cfg := testEnclosure(t)
	// Idle long past the timeout with spin-down disabled, then enable:
	// the enclosure should power off immediately, not wait a fresh timer.
	e.sync(10 * time.Minute)
	e.setSpinDown(10*time.Minute, true)
	e.sync(10*time.Minute + time.Second)
	if e.on {
		t.Fatal("enclosure should power off immediately when spin-down enabled past timeout")
	}
	_ = cfg
}
