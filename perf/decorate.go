package main

import (
	"time"

	"esm/internal/policy"
	"esm/internal/trace"
)

// The decorators below wrap the traced repetitions' source and policy.
// They count every call and time one in sampleEvery, which keeps two
// clock reads off the other calls.
const sampleEvery = 64

// span accumulates a sampled call-duration estimate.
type span struct {
	calls, sampled, ns int64
}

// due counts one call and reports whether it is the one to time.
func (s *span) due() bool {
	s.calls++
	return s.calls%sampleEvery == 1
}

func (s *span) add(d time.Duration) {
	s.sampled++
	s.ns += d.Nanoseconds()
}

// merge adds o's calls and timings to s.
func (s *span) merge(o span) {
	s.calls += o.calls
	s.sampled += o.sampled
	s.ns += o.ns
}

// meanNS is the mean duration of the timed calls.
func (s *span) meanNS() float64 {
	if s.sampled == 0 {
		return 0
	}
	return float64(s.ns) / float64(s.sampled)
}

// meteredSource times Next (the trace.next_ns span).
type meteredSource struct {
	trace.Source
	next span
}

func (s *meteredSource) Next() (trace.LogicalRecord, bool) {
	if !s.next.due() {
		return s.Source.Next()
	}
	t0 := time.Now()
	rec, ok := s.Source.Next()
	s.next.add(time.Since(t0))
	return rec, ok
}

// meteredPolicy times OnLogical and OnPhysical. The replay engines call
// both from a single goroutine (the sharded engine's conductor), so the
// counters need no synchronization. Embedding hides the policy's
// optional telemetry setters, which is harmless: the benchmark runs
// with every telemetry surface off.
type meteredPolicy struct {
	policy.Policy
	logical, physical span
}

func (p *meteredPolicy) OnLogical(rec trace.LogicalRecord) {
	if !p.logical.due() {
		p.Policy.OnLogical(rec)
		return
	}
	t0 := time.Now()
	p.Policy.OnLogical(rec)
	p.logical.add(time.Since(t0))
}

func (p *meteredPolicy) OnPhysical(rec trace.PhysicalRecord) {
	if !p.physical.due() {
		p.Policy.OnPhysical(rec)
		return
	}
	t0 := time.Now()
	p.Policy.OnPhysical(rec)
	p.physical.add(time.Since(t0))
}
