package replay

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
	"time"

	"esm/internal/core"
	"esm/internal/faults"
	"esm/internal/obs"
	"esm/internal/storage"
	"esm/internal/trace"
)

var update = flag.Bool("update", false, "rewrite the golden decision streams under testdata/golden")

// goldenVariant is one faulted replay of the skewed fixture whose two
// decision streams (the decision log's JSONL and the registry's
// /metrics text) are pinned byte for byte.
type goldenVariant struct {
	name   string
	seed   int64
	dur    time.Duration
	faults faults.Config
	alert  string
	// closedLoop replays the fixture item by item (Run.ClosedLoop).
	closedLoop bool
	// tune adjusts the storage config and the policy parameters.
	tune func(*storage.Config, *core.Params)
}

// goldenVariants together exercise every event kind and every decision
// kind: the first is the plain faulted run (spin-up, I/O and a
// battery-loss window under one alert rule); the second shrinks the
// enclosures and slows migrations so a queued one finds its
// destination full, and runs short periods so the pattern-change
// triggers fire; the third faults spin-ups hard enough to abandon a
// migration mid-copy; the fourth is the first one replayed closed-loop,
// so the closed-loop engine's issue order is pinned too.
var goldenVariants = []goldenVariant{
	{
		name: "faulted", seed: 99, dur: 25 * time.Minute,
		faults: faults.Config{
			Seed: 42, SpinUpFailProb: 0.5, TransientIOProb: 0.01,
			BatteryFailAt: 9 * time.Minute, BatteryRecoverAt: 13 * time.Minute,
		},
		alert: "budget:total_energy_j>2e5:for=30s",
		tune: func(_ *storage.Config, p *core.Params) {
			p.InitialPeriod = 4 * time.Minute
		},
	},
	{
		name: "crowded", seed: 2, dur: 40 * time.Minute,
		faults: faults.Config{Seed: 3, SpinUpFailProb: 0.2},
		alert:  "spins:spin_ups>=3",
		tune: func(c *storage.Config, p *core.Params) {
			c.EnclosureCapacity = 780 << 20
			c.MigrationBps = 1 << 20
			p.InitialPeriod = 3 * time.Minute
			p.MinPeriod = 3 * time.Minute
			p.ReplanCooldown = time.Minute
		},
	},
	{
		name: "abandoned", seed: 5, dur: 25 * time.Minute,
		faults: faults.Config{Seed: 11, SpinUpFailProb: 0.9, SpinUpMaxRetries: 1},
		alert:  "degraded:degraded>=1",
		tune: func(c *storage.Config, p *core.Params) {
			c.MigrationBps = 4 << 20
			p.InitialPeriod = 3 * time.Minute
			p.MinPeriod = 3 * time.Minute
			p.FaultDegradeThreshold = 50
		},
	},
	{
		name: "faulted-closed", seed: 99, dur: 25 * time.Minute,
		faults: faults.Config{
			Seed: 42, SpinUpFailProb: 0.5, TransientIOProb: 0.01,
			BatteryFailAt: 9 * time.Minute, BatteryRecoverAt: 13 * time.Minute,
		},
		alert:      "budget:total_energy_j>2e5:for=30s",
		closedLoop: true,
		tune: func(_ *storage.Config, p *core.Params) {
			p.InitialPeriod = 4 * time.Minute
		},
	},
}

// goldenRun replays one variant with every decision surface on and
// returns its two streams.
func goldenRun(t *testing.T, v goldenVariant) (events, metrics []byte) {
	t.Helper()
	cat, recs, placement := skewedTrace(v.dur, v.seed)
	cfg := storage.DefaultConfig(4)
	params := core.DefaultParams()
	v.tune(&cfg, &params)
	esm, err := core.NewESM(params)
	if err != nil {
		t.Fatal(err)
	}
	rules, err := obs.ParseRuleList(v.alert)
	if err != nil {
		t.Fatal(err)
	}
	var evBuf, metBuf bytes.Buffer
	reg := obs.NewRegistry()
	rec := obs.New(obs.Options{Log: &evBuf, Registry: reg, Label: v.name})
	tel := obs.Telemetry{
		Recorder: rec,
		Tracer:   obs.NewTracer(obs.TracerOptions{}),
		Alerts:   obs.NewWatchdog(obs.WatchdogOptions{Rules: rules, Registry: reg, Recorder: rec}),
	}
	fc := v.faults
	if _, err := Execute(Run{
		Catalog:    cat,
		Source:     trace.NewSliceSource(recs),
		Placement:  placement,
		Storage:    cfg,
		Policy:     esm,
		Duration:   v.dur,
		ClosedLoop: v.closedLoop,
		Faults:     &fc,
		Telemetry:  tel,
	}); err != nil {
		t.Fatal(err)
	}
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
	if err := reg.WritePrometheus(&metBuf); err != nil {
		t.Fatal(err)
	}
	return evBuf.Bytes(), metBuf.Bytes()
}

// TestGoldenDecisionStreams pins the decision streams of the golden
// variants byte for byte, and checks that together they exercise every
// event kind and every decision kind, so a refactor of the decision
// sites cannot reorder, drop or re-encode a record unnoticed. Run with
// -update to rewrite the files after an intended change.
func TestGoldenDecisionStreams(t *testing.T) {
	seenEv := map[obs.EventType]bool{}
	seenDec := map[obs.DecisionKind]bool{}
	for _, v := range goldenVariants {
		events, metrics := goldenRun(t, v)
		for ext, got := range map[string][]byte{
			".events.jsonl": events, ".metrics.txt": metrics,
		} {
			path := filepath.Join("testdata", "golden", v.name+ext)
			if *update {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, got, 0o644); err != nil {
					t.Fatal(err)
				}
				continue
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%v (run with -update to create it)", err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("%s: stream differs from the golden file at byte %d", path, firstDiff(got, want))
			}
		}
		evs, err := obs.ReadEvents(bytes.NewReader(events))
		if err != nil {
			t.Fatal(err)
		}
		for _, ev := range evs {
			seenEv[ev.Type] = true
			if ev.Decision != nil {
				seenDec[ev.Decision.Kind] = true
			}
		}
	}
	for _, typ := range obs.AllEventTypes() {
		if !seenEv[typ] {
			t.Errorf("no golden variant emits a %q event", typ)
		}
	}
	for _, kind := range []obs.DecisionKind{obs.DecisionMove, obs.DecisionReclass, obs.DecisionPreload, obs.DecisionWriteDelay} {
		if !seenDec[kind] {
			t.Errorf("no golden variant logs a %q decision", kind)
		}
	}
}

// firstDiff returns the index of the first byte where a and b differ.
func firstDiff(a, b []byte) int {
	i := 0
	for i < len(a) && i < len(b) && a[i] == b[i] {
		i++
	}
	return i
}
