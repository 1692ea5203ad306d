package replay

import (
	"bytes"
	"strconv"
	"testing"
	"time"

	"esm/internal/core"
	"esm/internal/obs"
	"esm/internal/storage"
	"esm/internal/trace"
)

// esmTrace builds a two-enclosure workload that provokes several
// determinations, migrations and power transitions.
func esmTrace() (*trace.Catalog, []trace.LogicalRecord, time.Duration) {
	cat := trace.NewCatalog()
	busy := cat.Add("busy", 1<<30)
	burst := cat.Add("burst", 32<<20)
	var recs []trace.LogicalRecord
	dur := 40 * time.Minute
	for tm := time.Duration(0); tm < dur; tm += 2 * time.Second {
		recs = append(recs, trace.LogicalRecord{Time: tm, Item: busy, Offset: int64(tm), Size: 8 << 10, Op: trace.OpRead})
	}
	for start := time.Duration(0); start < dur; start += 5 * time.Minute {
		for j := 0; j < 5; j++ {
			recs = append(recs, trace.LogicalRecord{Time: start + time.Duration(j)*300*time.Millisecond, Item: burst, Size: 8 << 10, Op: trace.OpRead})
		}
	}
	trace.SortLogical(recs)
	return cat, recs, dur
}

// TestEventStreamMatchesDeterminations is the end-to-end telemetry
// check: a replay with a JSONL recorder must write exactly one
// determination event per Determinations() count, numbered 1..n, each
// preceded by its determination_start, with pattern counts that sum to
// the catalog size and a hot mask sized to the array.
func TestEventStreamMatchesDeterminations(t *testing.T) {
	cat, recs, dur := esmTrace()
	esm, err := core.NewESM(core.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	reg := obs.NewRegistry()
	rec := obs.New(obs.Options{Log: &buf, Registry: reg, Label: "e2e"})
	res, err := Execute(Run{
		Catalog:   cat,
		Source:    trace.NewSliceSource(recs),
		Placement: []int{0, 1},
		Storage:   storage.DefaultConfig(2),
		Policy:    esm,
		Duration:  dur,
		Telemetry: obs.Telemetry{Recorder: rec},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
	if res.Determinations < 2 {
		t.Fatalf("workload produced only %d determinations", res.Determinations)
	}

	events, err := obs.ReadEvents(&buf)
	if err != nil {
		t.Fatal(err)
	}
	var starts, dets []*obs.DeterminationEvent
	for _, ev := range events {
		if ev.Run != "e2e" {
			t.Fatalf("event run label %q", ev.Run)
		}
		switch ev.Type {
		case obs.EvDeterminationStart:
			starts = append(starts, ev.Determination)
		case obs.EvDetermination:
			dets = append(dets, ev.Determination)
		}
	}
	if int64(len(dets)) != res.Determinations {
		t.Fatalf("%d determination events, policy reports %d", len(dets), res.Determinations)
	}
	if len(starts) != len(dets) {
		t.Fatalf("%d starts vs %d completions", len(starts), len(dets))
	}
	for i, d := range dets {
		if d.N != int64(i+1) {
			t.Errorf("determination %d numbered %d", i, d.N)
		}
		if starts[i].N != d.N || starts[i].Cause != d.Cause {
			t.Errorf("start/end mismatch at #%d: %+v vs %+v", d.N, starts[i], d)
		}
		total := 0
		for _, c := range d.PatternCounts {
			total += c
		}
		if total != cat.Len() {
			t.Errorf("determination #%d classified %d items, catalog has %d", d.N, total, cat.Len())
		}
		if len(d.Hot) != 2 {
			t.Errorf("determination #%d hot mask %v", d.N, d.Hot)
		}
		if d.NextPeriodNS <= 0 {
			t.Errorf("determination #%d has no next period", d.N)
		}
	}

	// The registry's determination counter agrees too.
	var out bytes.Buffer
	if err := reg.WritePrometheus(&out); err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(out.Bytes(), []byte("esm_determinations_total "+strconv.FormatInt(res.Determinations, 10))) {
		t.Fatalf("registry determination counter disagrees:\n%s", out.String())
	}
}

// TestRecorderTimelineMatchesMeter: spin-up counts in the power
// timelines rebuilt from the event stream must equal the power meter's.
func TestRecorderTimelineMatchesMeter(t *testing.T) {
	cat, recs, dur := esmTrace()
	esm, err := core.NewESM(core.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	var log bytes.Buffer
	rec := obs.New(obs.Options{Log: &log})
	res, err := Execute(Run{
		Catalog:   cat,
		Source:    trace.NewSliceSource(recs),
		Placement: []int{0, 1},
		Storage:   storage.DefaultConfig(2),
		Policy:    esm,
		Duration:  dur,
		Telemetry: obs.Telemetry{Recorder: rec},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
	events, err := obs.ReadEvents(&log)
	if err != nil {
		t.Fatal(err)
	}
	spinups := 0
	for _, segs := range obs.PowerSegments(events) {
		for _, s := range segs {
			if s.State == "spinup" {
				spinups++
			}
		}
	}
	if spinups != res.SpinUps {
		t.Fatalf("timeline spin-ups %d, meter %d", spinups, res.SpinUps)
	}
}
