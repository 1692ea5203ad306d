package replay

import (
	"bytes"
	"testing"
	"time"

	"esm/internal/core"
	"esm/internal/obs"
	"esm/internal/storage"
	"esm/internal/trace"
)

// provenanceESM builds the ESM policy instance the provenance tests
// drive: short periods so the fixture produces many determinations.
func provenanceESM(t *testing.T) *core.ESM {
	t.Helper()
	p := core.DefaultParams()
	p.InitialPeriod = 4 * time.Minute
	esm, err := core.NewESM(p)
	if err != nil {
		t.Fatal(err)
	}
	return esm
}

// provenanceRun replays the skewed fixture with the decision log
// attached and returns the log plus the run result.
func provenanceRun(t *testing.T, traced bool) ([]byte, *obs.ProvenanceSummary, *Result) {
	t.Helper()
	dur := 25 * time.Minute
	cat, recs, placement := skewedTrace(dur, 99)
	var buf bytes.Buffer
	rec := obs.New(obs.Options{Log: &buf})
	run := Run{
		Catalog:   cat,
		Source:    trace.NewSliceSource(recs),
		Placement: placement,
		Storage:   storage.DefaultConfig(4),
		Policy:    provenanceESM(t),
		Duration:  dur,
		Telemetry: obs.Telemetry{Recorder: rec},
	}
	if traced {
		run.Telemetry.Tracer = obs.NewTracer(obs.TracerOptions{})
	}
	res, err := Execute(run)
	if err != nil {
		t.Fatal(err)
	}
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), res.Provenance, res
}

// TestProvenanceStreamMatchesSerial is the log's determinism gate: the
// decision log and its summary must be byte-identical across reruns.
func TestProvenanceStreamMatchesSerial(t *testing.T) {
	serial, serialSum, _ := provenanceRun(t, false)
	if serialSum.Determinations == 0 || serialSum.Decisions == 0 || serialSum.Transitions == 0 {
		t.Fatalf("fixture exercises nothing: %+v", serialSum)
	}
	rerun, rerunSum, _ := provenanceRun(t, false)
	if !bytes.Equal(serial, rerun) {
		i := 0
		for i < len(serial) && i < len(rerun) && serial[i] == rerun[i] {
			i++
		}
		t.Errorf("log diverged at byte %d of %d/%d", i, len(serial), len(rerun))
	}
	if *rerunSum != *serialSum {
		t.Errorf("summary diverged: serial %+v, rerun %+v", serialSum, rerunSum)
	}
}

// TestProvenanceCapturesDecisions decodes a live run's log and checks
// the records carry what explain needs: determinations with monotone
// numbering and causes, decisions with features and classes that name
// the determination they belong to, and power records with valid
// states.
func TestProvenanceCapturesDecisions(t *testing.T) {
	log, sum, res := provenanceRun(t, false)
	events, err := obs.ReadEvents(bytes.NewReader(log))
	if err != nil {
		t.Fatal(err)
	}
	if sum.Determinations != res.Determinations || sum.Rows != int64(len(events)) {
		t.Fatalf("summary %+v; the result says %d determinations, the log holds %d records", sum, res.Determinations, len(events))
	}
	var lastDet int64
	var moves, powers int
	for _, ev := range events {
		switch ev.Type {
		case obs.EvDetermination:
			d := ev.Determination
			if d.N <= lastDet {
				t.Fatalf("determination numbering not monotone: %d after %d", d.N, lastDet)
			}
			lastDet = d.N
			if d.Cause == "" {
				t.Fatalf("determination %d has no cause", d.N)
			}
		case obs.EvDecision:
			d := ev.Decision
			if d.Det != lastDet+1 || d.Cause == "" {
				t.Fatalf("decision of determination %d (%q) logged after determination %d", d.Det, d.Cause, lastDet)
			}
			if d.Kind != obs.DecisionMove {
				continue
			}
			moves++
			if d.Item < 0 || d.Class < 0 || d.Class > 3 || d.Dst < 0 {
				t.Fatalf("malformed move: %+v", d)
			}
			if d.IntervalS < 0 || d.ReadRatio < 0 || d.ReadRatio > 1 {
				t.Fatalf("move features out of range: %+v", d)
			}
			// An item with no long idle intervals legitimately predicts
			// a 0 J delta; when both deltas are set they trade off.
			if d.PredDJ*d.PredDUS > 0 {
				t.Fatalf("predicted deltas do not trade off: %+v", d)
			}
		case obs.EvPowerOn, obs.EvPowerOff:
			powers++
			if s := ev.Power.State; s != "off" && s != "on" && s != "spinup" {
				t.Fatalf("power record with bad state: %+v", ev.Power)
			}
		}
	}
	if moves == 0 || powers == 0 {
		t.Fatalf("fixture logged %d moves, %d power records; want both > 0", moves, powers)
	}
}

// TestProvenanceAttributionJoin checks that a traced run appends the
// end-of-run energy-attribution records and that their joules stay
// within the ledger total.
func TestProvenanceAttributionJoin(t *testing.T) {
	log, _, res := provenanceRun(t, true)
	if res.Attribution == nil {
		t.Fatal("traced run produced no attribution")
	}
	events, err := obs.ReadEvents(bytes.NewReader(log))
	if err != nil {
		t.Fatal(err)
	}
	var joined float64
	var n int
	for _, ev := range events {
		if ev.Type != obs.EvAttribution {
			continue
		}
		for _, it := range ev.Attribution.Items {
			n++
			if it.Joules <= 0 {
				t.Fatalf("attributed item without joules: %+v", it)
			}
			joined += it.Joules
		}
	}
	if n == 0 {
		t.Fatal("no attribution joined into the log")
	}
	if joined > res.Attribution.TotalJ {
		t.Fatalf("joined joules %g exceed attribution total %g", joined, res.Attribution.TotalJ)
	}
}
