package replay

import (
	"bytes"
	"math"
	"testing"
	"time"

	"esm/internal/core"
	"esm/internal/obs"
	"esm/internal/storage"
	"esm/internal/trace"
)

// TestTracerEndToEnd replays the telemetry workload with a span tracer
// and checks the whole-run contracts: one I/O span per submitted
// record, latency breakdown counts that tile the span set, management
// spans for the determinations the policy reports, and an energy
// attribution that sums back to the power meter's enclosure joules.
func TestTracerEndToEnd(t *testing.T) {
	cat, recs, dur := esmTrace()
	esm, err := core.NewESM(core.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	var file bytes.Buffer
	trc := obs.NewTracer(obs.TracerOptions{Trace: &file})
	res, err := Execute(Run{
		Catalog:   cat,
		Source:    trace.NewSliceSource(recs),
		Placement: []int{0, 1},
		Storage:   storage.DefaultConfig(2),
		Policy:    esm,
		Duration:  dur,
		Telemetry: obs.Telemetry{Tracer: trc},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := trc.Close(); err != nil {
		t.Fatal(err)
	}
	pf, err := obs.ReadPerfetto(&file)
	if err != nil {
		t.Fatal(err)
	}
	var ios, management []obs.TraceEvent
	for _, ev := range pf.TraceEvents {
		switch {
		case ev.Ph == "M":
		case ev.Name == "read" || ev.Name == "write":
			ios = append(ios, ev)
		default:
			management = append(management, ev)
		}
	}

	// One span per submitted record (the workload injects no faults, so
	// none are dropped), agreeing with the replay's own aggregate.
	if int64(len(ios)) != res.Resp.Count() {
		t.Fatalf("%d I/O spans, replay counted %d I/Os", len(ios), res.Resp.Count())
	}
	if res.Latency == nil || res.Latency.Total.Count != int64(len(ios)) {
		t.Fatalf("latency summary %+v over %d spans", res.Latency, len(ios))
	}
	// The tracer's percentiles agree with the replay's ResponseStats on
	// the same I/Os (identical bucket schemes).
	for _, p := range []float64{0.5, 0.95, 0.99} {
		if got, want := trcPercentile(res.Latency, p), res.Resp.Percentile(p); got != want {
			t.Errorf("p%.2f: tracer %v, replay %v", p, got, want)
		}
	}
	if res.Latency.Total.Max != res.Resp.Max() {
		t.Errorf("max: tracer %v, replay %v", res.Latency.Total.Max, res.Resp.Max())
	}

	// Causes tile the span set; phase decomposition adds up per span;
	// a span is unclassified until the first determination and carries
	// a P class after it.
	firstDet := math.Inf(1)
	for _, sp := range management {
		if sp.Name == "determination" {
			firstDet = math.Min(firstDet, sp.Ts)
		}
	}
	var cacheHits, classified int64
	for _, sp := range ios {
		ns := func(key string) float64 { v, _ := sp.Args[key].(float64); return v }
		switch class := sp.Args["class"]; {
		case sp.Ts < firstDet && class != "unknown":
			t.Fatalf("span classified before the first determination: %+v", sp)
		case sp.Ts > firstDet && class == "unknown":
			t.Fatalf("span unclassified after the first determination: %+v", sp)
		case sp.Ts > firstDet:
			classified++
		}
		switch sp.Args["cause"] {
		case obs.IOCacheHit.String():
			cacheHits++
			for _, phase := range []string{"spinup_wait_ns", "queue_wait_ns", "service_ns", "power_state"} {
				if _, ok := sp.Args[phase]; ok {
					t.Fatalf("cache hit with physical phases: %+v", sp)
				}
			}
		default:
			if got := ns("spinup_wait_ns") + ns("queue_wait_ns") + ns("service_ns"); got != ns("response_ns") {
				t.Fatalf("phases %v don't sum to response %v: %+v", got, ns("response_ns"), sp)
			}
			if (sp.Args["cause"] == obs.IOSpinUpBlocked.String()) != (ns("spinup_wait_ns") > 0) {
				t.Fatalf("cause/spin-up wait mismatch: %+v", sp)
			}
			if sp.Args["power_state"] == "" {
				t.Fatalf("physical span without power state: %+v", sp)
			}
		}
	}
	if classified == 0 {
		t.Error("no span follows the first determination; the class check is vacuous")
	}
	if cacheHits != res.Storage.CacheHits {
		t.Errorf("%d cache-hit spans, array counted %d", cacheHits, res.Storage.CacheHits)
	}

	// Management spans: one determination span per policy determination.
	dets := 0
	for _, sp := range management {
		if sp.Name == "determination" {
			dets++
		}
	}
	if int64(dets) != res.Determinations {
		t.Errorf("%d determination spans, policy reports %d", dets, res.Determinations)
	}

	// The attribution conserves the power meter's enclosure joules.
	if res.Attribution == nil {
		t.Fatal("no attribution")
	}
	var meterJ float64
	for e := 0; e < 2; e++ {
		enc := res.Attribution.Enclosures[e]
		var items float64
		for _, it := range enc.ByItem {
			items += it.Joules
		}
		if !closeTo(items, enc.TotalJ) {
			t.Errorf("enclosure %d items sum %v, total %v", e, items, enc.TotalJ)
		}
		meterJ += enc.TotalJ
	}
	if !closeTo(res.Attribution.TotalJ, meterJ) {
		t.Errorf("attribution total %v, enclosure sum %v", res.Attribution.TotalJ, meterJ)
	}
	var classJ float64
	for _, j := range res.Attribution.ByClass {
		classJ += j
	}
	if !closeTo(classJ, res.Attribution.TotalJ) {
		t.Errorf("class sum %v, total %v", classJ, res.Attribution.TotalJ)
	}
	// The ESM policy classified the catalog, so real classes carry
	// energy (this workload's items are all touched).
	if res.Attribution.ByClass[4] >= res.Attribution.TotalJ/2 {
		t.Errorf("unknown class dominates: %v of %v", res.Attribution.ByClass[4], res.Attribution.TotalJ)
	}
}

// trcPercentile picks the named percentile out of a summary's total row.
func trcPercentile(l *obs.LatencySummary, p float64) time.Duration {
	switch p {
	case 0.5:
		return l.Total.P50
	case 0.95:
		return l.Total.P95
	default:
		return l.Total.P99
	}
}

func closeTo(a, b float64) bool {
	scale := math.Max(math.Abs(a), math.Abs(b))
	if scale < 1 {
		scale = 1
	}
	return math.Abs(a-b) <= 1e-9*scale
}

// TestTracerNilRunUnchanged: a run without a tracer must behave exactly
// as before — nil Latency/Attribution, identical aggregates to a traced
// run (tracing must not perturb the simulation).
func TestTracerNilRunUnchanged(t *testing.T) {
	cat, recs, dur := esmTrace()
	runOnce := func(trc *obs.Tracer) *Result {
		esm, err := core.NewESM(core.DefaultParams())
		if err != nil {
			t.Fatal(err)
		}
		res, err := Execute(Run{
			Catalog:   cat,
			Source:    trace.NewSliceSource(recs),
			Placement: []int{0, 1},
			Storage:   storage.DefaultConfig(2),
			Policy:    esm,
			Duration:  dur,
			Telemetry: obs.Telemetry{Tracer: trc},
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	plain := runOnce(nil)
	if plain.Latency != nil || plain.Attribution != nil {
		t.Fatal("untraced run carries tracer results")
	}
	traced := runOnce(obs.NewTracer(obs.TracerOptions{}))
	if plain.EnergyJ != traced.EnergyJ || plain.SpinUps != traced.SpinUps ||
		plain.Resp.Count() != traced.Resp.Count() || plain.Resp.Mean() != traced.Resp.Mean() ||
		plain.Storage.MigratedBytes != traced.Storage.MigratedBytes {
		t.Fatalf("tracing perturbed the run: %+v vs %+v", plain, traced)
	}
}
