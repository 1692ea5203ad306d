package powermodel

import (
	"math"
	"testing"
	"testing/quick"
	"time"
)

func TestDefaultBreakEvenIs52s(t *testing.T) {
	be := DefaultParams().BreakEven()
	if d := be - 52*time.Second; d < -50*time.Millisecond || d > 50*time.Millisecond {
		t.Fatalf("break-even = %v, want 52s (Table II)", be)
	}
}

func TestDefaultParamsValid(t *testing.T) {
	if err := DefaultParams().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestValidateRejectsNonsense(t *testing.T) {
	cases := []func(*Params){
		func(p *Params) { p.OffW = -1 },
		func(p *Params) { p.IdleW = p.OffW - 1 },
		func(p *Params) { p.ActiveW = p.IdleW - 1 },
		func(p *Params) { p.SpinUpW = p.IdleW - 1 },
		func(p *Params) { p.SpinUpTime = 0 },
		func(p *Params) { p.ControllerW = -1 },
	}
	for i, mutate := range cases {
		p := DefaultParams()
		mutate(&p)
		if err := p.Validate(); err == nil {
			t.Fatalf("case %d: expected validation error", i)
		}
	}
}

func TestStateStringAndWatts(t *testing.T) {
	p := DefaultParams()
	if p.Watts(Off) >= p.Watts(Idle) || p.Watts(Idle) >= p.Watts(Active) {
		t.Fatal("power states not ordered off < idle < active")
	}
	for _, s := range []State{Off, Idle, Active, SpinUp} {
		if s.String() == "" {
			t.Fatalf("state %d has empty string", s)
		}
	}
}

// TestBreakEvenIsTrueBreakEven verifies the fundamental property: staying
// idle for exactly BreakEven() costs the same energy as powering off and
// spinning back up over the same span.
func TestBreakEvenIsTrueBreakEven(t *testing.T) {
	p := DefaultParams()
	be := p.BreakEven()
	idleJ := p.IdleW * be.Seconds()
	offJ := p.OffW*(be-p.SpinUpTime).Seconds() + p.SpinUpW*p.SpinUpTime.Seconds()
	if math.Abs(idleJ-offJ) > 1 {
		t.Fatalf("idle %v J vs off+spinup %v J at break-even", idleJ, offJ)
	}
}

// TestBreakEvenProperty: for any sensible parameters, intervals longer
// than break-even save energy by powering off; shorter ones don't.
func TestBreakEvenProperty(t *testing.T) {
	f := func(idleRaw, spinRaw uint16, upSecs uint8) bool {
		p := Params{
			OffW:        10,
			IdleW:       10 + float64(idleRaw%500) + 1,
			SpinUpTime:  time.Duration(int(upSecs%30)+1) * time.Second,
			ControllerW: 100,
		}
		p.ActiveW = p.IdleW + 30
		p.SpinUpW = p.IdleW + float64(spinRaw%2000)
		be := p.BreakEven()
		cost := func(span time.Duration, off bool) float64 {
			if !off {
				return p.IdleW * span.Seconds()
			}
			if span < p.SpinUpTime {
				span = p.SpinUpTime
			}
			return p.OffW*(span-p.SpinUpTime).Seconds() + p.SpinUpW*p.SpinUpTime.Seconds()
		}
		longer := be + be/4 + time.Second
		shorter := be - be/4
		if shorter <= p.SpinUpTime {
			return true // degenerate; skip
		}
		if cost(longer, true) >= cost(longer, false) {
			return false
		}
		if cost(shorter, true) <= cost(shorter, false) {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestBreakEvenUnboundedWhenOffDoesNotSave(t *testing.T) {
	p := DefaultParams()
	p.IdleW = p.OffW
	if p.BreakEven() < time.Hour*24*365 {
		t.Fatal("break-even should be effectively unbounded when idle == off")
	}
}

func TestAccumulator(t *testing.T) {
	p := DefaultParams()
	a := NewAccumulator(p)
	a.Add(Idle, 10*time.Second)
	a.Add(Active, 5*time.Second)
	a.Add(Off, 85*time.Second)
	wantJ := p.IdleW*10 + p.ActiveW*5 + p.OffW*85
	if math.Abs(a.EnergyJ()-wantJ) > 1e-6 {
		t.Fatalf("energy %v, want %v", a.EnergyJ(), wantJ)
	}
	if a.Duration() != 100*time.Second {
		t.Fatalf("duration %v", a.Duration())
	}
	if a.InState(Idle) != 10*time.Second || a.InState(Off) != 85*time.Second {
		t.Fatal("per-state residency wrong")
	}
	a.CountSpinUp()
	a.CountSpinUp()
	if a.SpinUps() != 2 {
		t.Fatalf("spinups %d", a.SpinUps())
	}
}

func TestAccumulatorPanicsOnNegative(t *testing.T) {
	a := NewAccumulator(DefaultParams())
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on negative duration")
		}
	}()
	a.Add(Idle, -time.Second)
}

func TestMeter(t *testing.T) {
	p := DefaultParams()
	m := NewMeter(p, 3)
	for i := 0; i < 3; i++ {
		m.Enclosure(i).Add(Idle, time.Minute)
	}
	m.Enclosure(0).CountSpinUp()
	span := time.Minute
	wantEncl := 3 * p.IdleW * 60
	if math.Abs(m.EnclosureEnergyJ()-wantEncl) > 1e-6 {
		t.Fatalf("enclosure energy %v", m.EnclosureEnergyJ())
	}
	wantTotal := wantEncl + p.ControllerW*60
	if math.Abs(m.TotalEnergyJ(span)-wantTotal) > 1e-6 {
		t.Fatalf("total energy %v", m.TotalEnergyJ(span))
	}
	if math.Abs(m.AverageEnclosureW(span)-3*p.IdleW) > 1e-6 {
		t.Fatalf("avg enclosure W %v", m.AverageEnclosureW(span))
	}
	if math.Abs(m.AverageTotalW(span)-(3*p.IdleW+p.ControllerW)) > 1e-6 {
		t.Fatalf("avg total W %v", m.AverageTotalW(span))
	}
	if m.SpinUps() != 1 {
		t.Fatalf("spinups %d", m.SpinUps())
	}
	if m.AverageTotalW(0) != 0 || m.AverageEnclosureW(0) != 0 {
		t.Fatal("zero-span averages should be 0")
	}
}

func TestSSDParams(t *testing.T) {
	p := SSDParams()
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if be := p.BreakEven(); be > 2*time.Second {
		t.Fatalf("SSD break-even %v, want sub-second-scale", be)
	}
	hdd := DefaultParams()
	if p.IdleW >= hdd.IdleW || p.ActiveW >= hdd.ActiveW {
		t.Fatal("SSD profile should draw far less than HDD")
	}
}
