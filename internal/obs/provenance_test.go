package obs

import (
	"bytes"
	"reflect"
	"testing"
	"time"
)

// TestNilProvenanceSafe pins the nil-receiver contract: a nil
// *Provenance accepts every call, returns empty views, and allocates
// nothing on the record path.
func TestNilProvenanceSafe(t *testing.T) {
	var p *Provenance
	p.ConfigurePower(300, 10*time.Second)
	p.Log(time.Second, decisionRec(Decision{Kind: ProvMove, Item: 7}))
	p.Log(time.Second, powerRec(0, "spinup", CauseDemand))
	p.Log(time.Second, cacheRec(EvCacheSelect, "preload", 1, 2))
	p.RecordAttribution(time.Second, &Attribution{})
	if s := p.Series(); s != nil {
		t.Fatalf("nil recorder Series = %v", s)
	}
	if sum := p.Summary(); sum != nil {
		t.Fatalf("nil recorder Summary = %v", sum)
	}

	allocs := testing.AllocsPerRun(1000, func() {
		p.Log(time.Second, Event{Type: EvDecision, Decision: &Decision{Kind: ProvMove, Item: 7, IntervalS: 60}})
		p.Log(time.Second, Event{Type: EvPowerOn, Power: &PowerEvent{Enclosure: 0, State: "spinup", Cause: CauseDemand}})
		p.Log(time.Second, Event{Type: EvMigrationDone, Migration: &MigrationEvent{Item: 7, Src: 0, Dst: 1}})
		p.Log(time.Second, Event{Type: EvFault, Fault: &FaultEvent{Kind: "spinup-fail"}})
	})
	if allocs != 0 {
		t.Fatalf("nil record path allocates: %v allocs/run", allocs)
	}
}

// TestProvenanceCompaction drives the store past its bound and checks
// the flight-recorder discipline: row count stays within provMaxRecords,
// the stride doubles, the first row survives, and times stay strictly
// increasing.
func TestProvenanceCompaction(t *testing.T) {
	p := NewProvenance()
	const offers = 3 * provMaxRecords
	for i := 0; i < offers; i++ {
		p.Log(time.Duration(i)*time.Second, decisionRec(Decision{Kind: ProvDetermination, Det: int64(i + 1), Cause: CausePeriodEnd, Item: -1, Class: -1, PrevClass: -1, Src: 1}))
	}
	sum := p.Summary()
	if sum.Offered != offers {
		t.Fatalf("offered %d, want %d", sum.Offered, offers)
	}
	if sum.Records > provMaxRecords {
		t.Fatalf("stored %d rows, bound is %d", sum.Records, provMaxRecords)
	}
	if sum.Stride < 2 {
		t.Fatalf("stride %d after overflow, want >= 2", sum.Stride)
	}
	if sum.Determinations != offers {
		t.Fatalf("determination counter %d, want %d (compaction must not rewind counters)", sum.Determinations, offers)
	}
	s := p.Series()
	if s.Len() != sum.Records {
		t.Fatalf("series has %d rows, summary says %d", s.Len(), sum.Records)
	}
	if s.TimesNS[0] != 0 {
		t.Fatalf("first row dropped: t[0] = %d", s.TimesNS[0])
	}
	for i := 1; i < s.Len(); i++ {
		if s.TimesNS[i] <= s.TimesNS[i-1] {
			t.Fatalf("times not strictly increasing at row %d: %d then %d", i, s.TimesNS[i-1], s.TimesNS[i])
		}
	}
}

// TestProvenanceRoundTrip records one row of every kind and checks the
// CSV round trip reproduces the decoded records exactly. Records the
// ledger does not keep are offered too, and must leave no row.
func TestProvenanceRoundTrip(t *testing.T) {
	p := NewProvenance()
	p.Log(10*time.Second, decisionRec(Decision{Kind: ProvDetermination, Det: 1, Cause: CausePeriodEnd, Item: -1, Class: -1, PrevClass: -1, Src: 2, Dst: 1}))
	p.Log(10*time.Second, decisionRec(Decision{
		Kind: ProvMove, Det: 1, Cause: CausePeriodEnd, Item: 7, Class: 3,
		PrevClass: -1, Src: 0, Dst: 2, IntervalS: 120, ReadRatio: 0.75,
		CostSrc: 5.5, CostDst: 0.25, ToCold: true,
	}))
	p.Log(10*time.Second, decisionRec(Decision{
		Kind: ProvReclass, Det: 1, Cause: CausePeriodEnd, Item: 8, Class: 1, PrevClass: 3, Src: 1,
		Dst: -1,
	}))
	p.Log(10*time.Second, Event{Type: EvDetermination, Determination: &DeterminationEvent{N: 1}})
	p.Log(11*time.Second, powerRec(2, "spinup", CauseMigration))
	p.Log(26*time.Second, powerRec(2, "on", CauseMigration))
	p.Log(27*time.Second, migrationRec(EvMigrationStart, 7, 0, 2, 1<<20))
	p.Log(30*time.Second, migrationRec(EvMigrationDone, 7, 0, 2, 1<<20))
	p.Log(31*time.Second, cacheRec(EvCacheSelect, "preload", 8))
	p.Log(31*time.Second, cacheRec(EvCacheEvict, "preload", 5))
	p.Log(32*time.Second, cacheRec(EvCacheSelect, "write-delay", 11))
	p.Log(32*time.Second, cacheRec(EvCacheEvict, "write-delay", 9, 10))
	p.Log(40*time.Second, Event{Type: EvFault, Fault: &FaultEvent{Kind: "spinup-fail", Enclosure: 3}})
	p.RecordAttribution(60*time.Second, &Attribution{
		Enclosures: []EnclosureAttribution{{
			Enclosure: 2,
			ByItem:    []ItemEnergy{{Item: 7, Class: 3, Joules: 123.5}},
		}},
	})

	direct, ok := DecodeProvenance(p.Series())
	if !ok {
		t.Fatal("fresh series failed to decode")
	}
	var buf bytes.Buffer
	if err := p.Series().WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	read, err := ReadSeriesCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	decoded, ok := DecodeProvenance(read)
	if !ok {
		t.Fatal("CSV series failed to decode")
	}
	if !reflect.DeepEqual(direct, decoded) {
		t.Fatalf("round trip diverged:\ndirect  %+v\ndecoded %+v", direct, decoded)
	}

	// Spot-check the semantics survived: the move row carries its
	// predicted deltas with to-cold signs (saves joules, costs latency).
	var move *ProvRecord
	for i := range decoded {
		if decoded[i].Kind == ProvMove {
			move = &decoded[i]
		}
	}
	if move == nil {
		t.Fatal("no move row decoded")
	}
	if move.PredDJ >= 0 || move.PredDUS <= 0 {
		t.Fatalf("to-cold move predicts dj=%g dus=%g; want dj<0, dus>0", move.PredDJ, move.PredDUS)
	}
	if move.Cause != string(CausePeriodEnd) || move.Item != 7 || move.Src != 0 || move.Dst != 2 {
		t.Fatalf("move row corrupted: %+v", move)
	}
	if len(decoded) != 11 {
		t.Fatalf("ledger kept %d rows, want 11: %+v", len(decoded), decoded)
	}
	sum := p.Summary()
	if sum.Determinations != 1 || sum.Decisions != 2 || sum.Transitions != 2 || sum.Migrations != 1 || sum.Faults != 1 {
		t.Fatalf("summary counters wrong: %+v", sum)
	}
}

// TestProvenancePredictedDeltas pins the first-order move economics
// and that ConfigurePower overrides the electrical constants.
func TestProvenancePredictedDeltas(t *testing.T) {
	p := NewProvenance()
	p.ConfigurePower(100, 10*time.Second)
	p.Log(time.Second, decisionRec(Decision{Kind: ProvMove, Det: 1, Item: 1, IntervalS: 60, ReadRatio: 0.5, ToCold: true}))
	p.Log(time.Second, decisionRec(Decision{Kind: ProvMove, Det: 1, Item: 2, IntervalS: 60, ReadRatio: 0.5, ToCold: false}))
	recs, ok := DecodeProvenance(p.Series())
	if !ok || len(recs) != 2 {
		t.Fatalf("decode failed: ok=%v n=%d", ok, len(recs))
	}
	// To cold: saves idleW x interval = 100 x 60 J, costs spin-up
	// exposure = 10s x 0.5 read ratio = 5e6 us.
	if recs[0].PredDJ != -6000 || recs[0].PredDUS != 5e6 {
		t.Fatalf("to-cold deltas: dj=%g dus=%g, want -6000, 5e6", recs[0].PredDJ, recs[0].PredDUS)
	}
	if recs[1].PredDJ != 6000 || recs[1].PredDUS != -5e6 {
		t.Fatalf("to-hot deltas: dj=%g dus=%g, want 6000, -5e6", recs[1].PredDJ, recs[1].PredDUS)
	}
}

// TestCauseCodes pins the stable cause table: every name round-trips,
// empty maps to 0 and unknown strings to -1.
func TestCauseCodes(t *testing.T) {
	if CauseCode("") != 0 || CauseName(0) != "" {
		t.Fatal("empty cause must map to code 0")
	}
	if CauseCode("no-such-cause") != -1 {
		t.Fatal("unknown cause must map to -1")
	}
	for code := 1; code <= len(provCauses); code++ {
		name := CauseName(code)
		if name == "" || name == "?" {
			t.Fatalf("code %d has no name", code)
		}
		if CauseCode(name) != code {
			t.Fatalf("cause %q: code %d round-trips to %d", name, code, CauseCode(name))
		}
	}
	for _, state := range []string{"off", "on", "spinup"} {
		if PowerStateName(PowerStateCode(state)) != state {
			t.Fatalf("power state %q does not round-trip", state)
		}
	}
	if PowerStateCode("bogus") != -1 || PowerStateName(-1) != "?" {
		t.Fatal("unknown power state must map to -1 / ?")
	}
}
