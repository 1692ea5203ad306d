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

// provenanceRun replays the skewed fixture with a provenance recorder
// attached and returns the ledger CSV plus the run result.
func provenanceRun(t *testing.T, traced bool) ([]byte, *obs.ProvenanceSummary, *Result) {
	t.Helper()
	dur := 25 * time.Minute
	cat, recs, placement := skewedTrace(dur, 99)
	var buf bytes.Buffer
	prov := obs.NewProvenance(&buf)
	run := Run{
		Catalog:   cat,
		Source:    trace.NewSliceSource(recs),
		Placement: placement,
		Storage:   storage.DefaultConfig(4),
		Policy:    provenanceESM(t),
		Duration:  dur,
		Telemetry: obs.Telemetry{Provenance: prov},
	}
	if traced {
		run.Telemetry.Tracer = obs.NewTracer(obs.TracerOptions{})
	}
	res, err := Execute(run)
	if err != nil {
		t.Fatal(err)
	}
	if err := prov.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), res.Provenance, res
}

// TestProvenanceStreamMatchesSerial is the ledger's determinism gate:
// the provenance CSV and its summary must be byte-identical across
// reruns.
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
		t.Errorf("ledger diverged at byte %d of %d/%d", i, len(serial), len(rerun))
	}
	if *rerunSum != *serialSum {
		t.Errorf("summary diverged: serial %+v, rerun %+v", serialSum, rerunSum)
	}
}

// TestProvenanceCapturesDecisions decodes a live run's ledger and
// checks the rows carry what explain needs: determination rows with
// monotone numbering and causes, decision rows with features and
// classes, and runtime power rows with valid states.
func TestProvenanceCapturesDecisions(t *testing.T) {
	csv, sum, res := provenanceRun(t, false)
	recs, err := obs.ReadProvenanceCSV(bytes.NewReader(csv))
	if err != nil {
		t.Fatal(err)
	}
	if sum.Determinations != res.Determinations {
		t.Fatalf("ledger saw %d determinations, result says %d", sum.Determinations, res.Determinations)
	}
	var lastDet int64
	var moves, powers int
	for _, r := range recs {
		switch r.Kind {
		case obs.ProvDetermination:
			if r.Det <= lastDet {
				t.Fatalf("determination numbering not monotone: %d after %d", r.Det, lastDet)
			}
			lastDet = r.Det
			if r.Cause == "" || r.Cause == "?" {
				t.Fatalf("determination %d has no cause", r.Det)
			}
		case obs.ProvMove:
			moves++
			if r.Det <= 0 || r.Item < 0 || r.Class < 0 || r.Class > 3 || r.Dst < 0 {
				t.Fatalf("malformed move row: %+v", r)
			}
			if r.IntervalS < 0 || r.ReadRatio < 0 || r.ReadRatio > 1 {
				t.Fatalf("move features out of range: %+v", r)
			}
			// An item with no long idle intervals legitimately predicts
			// a 0 J delta; when both deltas are set they trade off.
			if r.PredDJ*r.PredDUS > 0 {
				t.Fatalf("predicted deltas do not trade off: %+v", r)
			}
		case obs.ProvPower:
			powers++
			if r.Det != -1 {
				t.Fatalf("runtime power row carries det %d: %+v", r.Det, r)
			}
			if r.Dst != 0 && r.Dst != 1 && r.Dst != 2 {
				t.Fatalf("power row with bad state code: %+v", r)
			}
		}
	}
	if moves == 0 || powers == 0 {
		t.Fatalf("fixture recorded %d moves, %d power rows; want both > 0", moves, powers)
	}
}

// TestProvenanceAttributionJoin checks that a traced run appends the
// end-of-run energy-attribution rows and that their joules stay within
// the ledger total.
func TestProvenanceAttributionJoin(t *testing.T) {
	csv, _, res := provenanceRun(t, true)
	if res.Attribution == nil {
		t.Fatal("traced run produced no attribution")
	}
	recs, err := obs.ReadProvenanceCSV(bytes.NewReader(csv))
	if err != nil {
		t.Fatal(err)
	}
	var joined float64
	var n int
	for _, r := range recs {
		if r.Kind != obs.ProvAttrib {
			continue
		}
		n++
		if r.Joules <= 0 {
			t.Fatalf("attrib row without joules: %+v", r)
		}
		joined += r.Joules
	}
	if n == 0 {
		t.Fatal("no attribution rows joined into the ledger")
	}
	if joined > res.Attribution.TotalJ {
		t.Fatalf("joined joules %g exceed attribution total %g", joined, res.Attribution.TotalJ)
	}
}
