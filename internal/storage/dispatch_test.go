package storage

import (
	"math/rand"
	"slices"
	"testing"
	"time"

	"esm/internal/faults"
	"esm/internal/powermodel"
)

// linearArrival is the enclosure's arrival with the dispatch it had
// before its servers became a min-heap: a scan for the lowest-indexed
// server with the earliest free time. It is the reference the heap
// dispatch is checked against.
func linearArrival(e *enclosure, now time.Duration, size int32, sequential bool, kind ioKind, info *arrivalInfo) (time.Duration, error) {
	e.sync(now)
	start := now
	if !e.on {
		attempt := 1
		for e.inj.SpinUpAttemptFails(start, e.id, attempt) {
			e.acc.Add(powermodel.SpinUp, e.cfg.Power.SpinUpTime)
			start += e.cfg.Power.SpinUpTime
			if attempt >= e.inj.MaxSpinUpAttempts() {
				e.lastSync = start
				e.inj.SpinUpExhausted(start, e.id)
				return 0, &FaultError{Enclosure: e.id, Op: "spin-up"}
			}
			backoff := e.inj.SpinUpBackoff(attempt)
			e.acc.Add(powermodel.Off, backoff)
			start += backoff
			attempt++
		}
		spinEnd := start + e.cfg.Power.SpinUpTime
		e.acc.Add(powermodel.SpinUp, e.cfg.Power.SpinUpTime)
		e.acc.CountSpinUp()
		e.on = true
		for i := range e.servers {
			if e.servers[i] < spinEnd {
				e.servers[i] = spinEnd
			}
		}
		if e.busyUntil < spinEnd {
			e.busyUntil = spinEnd
		}
		e.lastSync = spinEnd
		start = spinEnd
		info.spinUpWait = start - now
	}
	svc := e.serviceTime(size, sequential)
	if e.inj.TransientIO(start, e.id) {
		svc = svc*2 + e.inj.TransientIODelay()
	}
	k := 0
	for i := 1; i < len(e.servers); i++ {
		if e.servers[i] < e.servers[k] {
			k = i
		}
	}
	begin := start
	if e.servers[k] > begin {
		begin = e.servers[k]
	}
	end := begin + svc
	e.servers[k] = end
	if end > e.busyUntil {
		e.busyUntil = end
	}
	info.queueWait = begin - start
	return end, nil
}

// TestHeapDispatchMatchesLinearScan drives a heap-dispatched enclosure
// and the linear-scan reference side by side through several thousand
// seeded arrivals — queued bursts, mixed sizes, sequential and random
// I/O, spin-down and spin-up cycles, failed spin-ups and transient I/O
// faults — and requires identical completions, busyUntil, queue waits
// and sorted server free times at every step.
func TestHeapDispatchMatchesLinearScan(t *testing.T) {
	cfg := DefaultConfig(1)
	fc := faults.Config{Seed: 17, SpinUpFailProb: 0.3, SpinUpMaxRetries: 2, TransientIOProb: 0.05}
	heap, ref := newEnclosure(0, &cfg), newEnclosure(0, &cfg)
	for _, e := range []*enclosure{heap, ref} {
		inj, err := faults.NewInjector(fc)
		if err != nil {
			t.Fatal(err)
		}
		e.inj = inj
	}
	heap.setSpinDown(0, true)
	ref.setSpinDown(0, true)
	rng := rand.New(rand.NewSource(3))
	sizes := []int32{512, 4 << 10, 64 << 10, 1 << 20}
	var now time.Duration
	spinUps, queued, failed := 0, 0, 0
	for step := 0; step < 6000; step++ {
		switch r := rng.Intn(100); {
		case r < 50:
			// Bursts: arrivals at the same instant queue for servers.
		case r < 92:
			now += time.Duration(rng.Int63n(int64(100 * time.Millisecond)))
		default:
			// Long enough for an enabled idle timer to power off.
			now += cfg.SpinDownTimeout + time.Duration(rng.Int63n(int64(time.Minute)))
		}
		if rng.Intn(50) == 0 {
			enabled := rng.Intn(4) != 0
			heap.setSpinDown(now, enabled)
			ref.setSpinDown(now, enabled)
		}
		size := sizes[rng.Intn(len(sizes))]
		seq := rng.Intn(3) == 0
		kind := ioKind(rng.Intn(4))
		var hi, ri arrivalInfo
		hEnd, hErr := heap.arrival(now, 0, size, seq, kind, &hi)
		rEnd, rErr := linearArrival(ref, now, size, seq, kind, &ri)
		if (hErr == nil) != (rErr == nil) || hEnd != rEnd {
			t.Fatalf("step %d: heap completes at %v (err %v), linear scan at %v (err %v)", step, hEnd, hErr, rEnd, rErr)
		}
		if hErr != nil {
			failed++
		} else if hi.spinUpWait > 0 {
			spinUps++
		}
		if hi.queueWait > 0 {
			queued++
		}
		if hi.queueWait != ri.queueWait || hi.spinUpWait != ri.spinUpWait {
			t.Fatalf("step %d: heap waits queue %v spin-up %v, linear scan %v %v",
				step, hi.queueWait, hi.spinUpWait, ri.queueWait, ri.spinUpWait)
		}
		if heap.busyUntil != ref.busyUntil || heap.on != ref.on {
			t.Fatalf("step %d: heap busy until %v (on %v), linear scan %v (on %v)",
				step, heap.busyUntil, heap.on, ref.busyUntil, ref.on)
		}
		hs, rs := slices.Clone(heap.servers), slices.Clone(ref.servers)
		slices.Sort(hs)
		slices.Sort(rs)
		if !slices.Equal(hs, rs) {
			t.Fatalf("step %d: heap free times %v, linear scan %v", step, hs, rs)
		}
		for i := 1; i < len(heap.servers); i++ {
			if heap.servers[i] < heap.servers[(i-1)/2] {
				t.Fatalf("step %d: heap order broken at %d: %v", step, i, heap.servers)
			}
		}
	}
	if heap.acc.EnergyJ() != ref.acc.EnergyJ() {
		t.Fatalf("heap energy %v J, linear scan %v J", heap.acc.EnergyJ(), ref.acc.EnergyJ())
	}
	// The run must have exercised what it claims to.
	t.Logf("%d spin-ups, %d queued arrivals, %d failed spin-ups", spinUps, queued, failed)
	if spinUps < 20 || queued < 500 || failed == 0 {
		t.Fatalf("weak coverage: %d spin-ups, %d queued arrivals, %d failed spin-ups", spinUps, queued, failed)
	}
}
