package obs

import (
	"bytes"
	"errors"
	"reflect"
	"strings"
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
	if tail := p.Tail(); tail != nil {
		t.Fatalf("nil recorder Tail = %v", tail)
	}
	if err := p.Close(); err != nil {
		t.Fatalf("nil recorder Close = %v", err)
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

// TestProvenanceTail drives the ledger past its live tail and checks
// that the tail keeps the last provTailRows rows in order and counts
// the rest as dropped, while the counters and the stream keep every
// row.
func TestProvenanceTail(t *testing.T) {
	var buf bytes.Buffer
	p := NewProvenance(&buf)
	const rows = 3 * provTailRows
	for i := 0; i < rows; i++ {
		p.Log(time.Duration(i)*time.Second, decisionRec(Decision{Kind: ProvDetermination, Det: int64(i + 1), Cause: CausePeriodEnd, Item: -1, Class: -1, PrevClass: -1, Src: 1}))
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	sum := p.Summary()
	if sum.Rows != rows || sum.Determinations != rows {
		t.Fatalf("rows %d, determinations %d; want %d each", sum.Rows, sum.Determinations, rows)
	}
	if sum.Dropped != rows-provTailRows {
		t.Fatalf("dropped %d, want %d", sum.Dropped, rows-provTailRows)
	}
	tail := p.Tail()
	if len(tail) != provTailRows {
		t.Fatalf("tail holds %d rows, want %d", len(tail), provTailRows)
	}
	for i, r := range tail {
		if want := int64(rows - provTailRows + i + 1); r.Det != want {
			t.Fatalf("tail[%d] is determination %d, want %d", i, r.Det, want)
		}
	}
	recs, err := ReadProvenanceCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != rows {
		t.Fatalf("stream holds %d rows, want %d", len(recs), rows)
	}
	for i, r := range recs {
		if r.Det != int64(i+1) {
			t.Fatalf("stream row %d is determination %d", i, r.Det)
		}
	}
	if !reflect.DeepEqual(recs[rows-provTailRows:], tail) {
		t.Fatal("tail differs from the stream's last rows")
	}
}

// failingWriter fails its failAt-th write and every write after it.
type failingWriter struct {
	writes, failAt int
	closed         bool
}

var errDiskFull = errors.New("disk full")

func (w *failingWriter) Write(b []byte) (int, error) {
	w.writes++
	if w.writes >= w.failAt {
		return 0, errDiskFull
	}
	return len(b), nil
}

func (w *failingWriter) Close() error {
	w.closed = true
	return nil
}

// TestProvenanceWriteErrorSurfaces checks that a failing writer's
// first error comes back from Close, which still closes the writer,
// and that rows after the failure still reach the tail and counters.
func TestProvenanceWriteErrorSurfaces(t *testing.T) {
	w := &failingWriter{failAt: 3}
	p := NewProvenance(w)
	const rows = 1000 // far more than the buffer holds
	for i := 0; i < rows; i++ {
		p.Log(time.Duration(i)*time.Second, powerRec(i%4, "spinup", CauseDemand))
	}
	if w.writes < w.failAt {
		t.Fatalf("the writer saw %d writes; the case never fails", w.writes)
	}
	if err := p.Close(); !errors.Is(err, errDiskFull) {
		t.Fatalf("Close = %v, want %v", err, errDiskFull)
	}
	if !w.closed {
		t.Fatal("Close did not close the writer")
	}
	if sum := p.Summary(); sum.Rows != rows || sum.Transitions != rows {
		t.Fatalf("counters stopped at the failure: %+v", sum)
	}
	if tail := p.Tail(); len(tail) != rows || tail[rows-1].T != (rows-1)*time.Second {
		t.Fatalf("tail holds %d rows, want %d ending at the last", len(tail), rows)
	}
}

// TestProvenanceRoundTrip records one row of every kind and checks the
// streamed CSV reads back as exactly the rows of the live tail. Records
// the ledger does not keep are offered too, and must leave no row.
func TestProvenanceRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	p := NewProvenance(&buf)
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

	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	decoded, err := ReadProvenanceCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if direct := p.Tail(); !reflect.DeepEqual(direct, decoded) {
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
	p := NewProvenance(nil)
	p.ConfigurePower(100, 10*time.Second)
	p.Log(time.Second, decisionRec(Decision{Kind: ProvMove, Det: 1, Item: 1, IntervalS: 60, ReadRatio: 0.5, ToCold: true}))
	p.Log(time.Second, decisionRec(Decision{Kind: ProvMove, Det: 1, Item: 2, IntervalS: 60, ReadRatio: 0.5, ToCold: false}))
	recs := p.Tail()
	if len(recs) != 2 {
		t.Fatalf("tail holds %d rows, want 2", len(recs))
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

// TestCauseCodes pins the stable cause table (every name round-trips,
// empty maps to 0 and unknown strings to -1) and the power-state codes.
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
	for code, state := range []string{"off", "on", "spinup"} {
		if PowerStateCode(state) != code {
			t.Fatalf("power state %q has code %d, want %d", state, PowerStateCode(state), code)
		}
	}
	if PowerStateCode("bogus") != -1 {
		t.Fatal("unknown power state must map to -1")
	}
}

// TestEmptyProvenanceIsValidFile checks that a ledger that recorded
// nothing is still a file the reader accepts: the header alone.
func TestEmptyProvenanceIsValidFile(t *testing.T) {
	var buf bytes.Buffer
	if err := NewProvenance(&buf).Close(); err != nil {
		t.Fatal(err)
	}
	if buf.String() != provHeader {
		t.Fatalf("empty ledger is %q, want the header %q", buf.String(), provHeader)
	}
	recs, err := ReadProvenanceCSV(&buf)
	if err != nil || len(recs) != 0 {
		t.Fatalf("empty ledger reads as %d rows, %v", len(recs), err)
	}
}

// goldenProvRows are ledger rows of several kinds as the replay's
// golden files hold them.
const goldenProvRows = `240000000000,1,1,6,-1,-1,-1,1,1,0,0,0,0,0,0,0
240000000000,2,1,6,2,3,-1,1,0,0,0.6909090909090909,0.041666666666666664,0.6541666666666667,0,-1.0363636363636363e+07,0
240000000000,5,1,6,3,1,-1,1,-1,82.201,0.8,0,0,0,0,0
240000000000,4,-1,5,3,-1,-1,-1,-1,0,0,0,0,0,0,0
240000000000,6,-1,1,-1,-1,-1,2,0,0,0,0,0,0,0,0
240960000000,7,-1,0,2,-1,-1,1,0,0,0,0,0,0,0,0
436921000000,8,-1,11,-1,-1,-1,0,-1,0,0,0,0,0,0,0
1500000000000,9,-1,0,0,3,-1,0,-1,0,0,0,0,0,0,116255.66646327352
`

// TestReadProvenanceCSVRejects feeds the reader malformed ledgers: each
// must fail with an error naming the line (and the column, where one
// is at fault), never panic and never yield rows.
func TestReadProvenanceCSVRejects(t *testing.T) {
	good := "240000000000,6,-1,1,-1,-1,-1,2,0,0,0,0,0,0,0,0\n"
	for _, tc := range []struct {
		name, in, want string
	}{
		{"empty", "", "line 1: missing newline"},
		{"wrong header", "t_ns,value\n" + good, "line 1: header"},
		{"reordered header", strings.Replace(provHeader, "kind,det", "det,kind", 1) + good, "line 1: header"},
		{"crlf header", strings.Replace(provHeader, "\n", "\r\n", 1) + good, "line 1: header"},
		{"short row", provHeader + good + "240000000000,6,-1\n", "line 3: 3 fields, want 16"},
		{"long row", provHeader + "240000000000,6,-1,1,-1,-1,-1,2,0,0,0,0,0,0,0,0,7\n", "line 2: 17 fields, want 16"},
		{"blank row", provHeader + "\n", "line 2: 1 fields, want 16"},
		{"non-numeric time", provHeader + "soon,6,-1,1,-1,-1,-1,2,0,0,0,0,0,0,0,0\n", "line 2 column t_ns"},
		{"non-numeric field", provHeader + good + "240000000000,6,-1,1,-1,-1,-1,two,0,0,0,0,0,0,0,0\n", "line 3 column src"},
		{"fractional id", provHeader + "240000000000,6,-1,1,1.5,-1,-1,2,0,0,0,0,0,0,0,0\n", "line 2: "},
		{"non-canonical number", provHeader + "240000000000,6,-1,1,-1,-1,-1,2,0,0,0,0,0,0,0,0.50\n", "line 2: "},
		{"non-canonical time", provHeader + "0240000000000,6,-1,1,-1,-1,-1,2,0,0,0,0,0,0,0,0\n", "line 2: "},
		{"unknown cause", provHeader + "240000000000,6,-1,99,-1,-1,-1,2,0,0,0,0,0,0,0,0\n", "line 2: "},
		{"quoted field", provHeader + "240000000000,\"6\",-1,1,-1,-1,-1,2,0,0,0,0,0,0,0,0\n", "line 2 column kind"},
		{"missing final newline", provHeader + strings.TrimSuffix(good, "\n"), "line 2: missing newline"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			recs, err := ReadProvenanceCSV(strings.NewReader(tc.in))
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %v, want one containing %q", err, tc.want)
			}
			if recs != nil {
				t.Fatalf("a failed read returned %d rows", len(recs))
			}
		})
	}
}

// FuzzReadProvenanceCSV: the reader never panics, and whatever it
// accepts re-encodes to the same bytes.
func FuzzReadProvenanceCSV(f *testing.F) {
	f.Add([]byte(provHeader + goldenProvRows))
	f.Add([]byte(provHeader))
	f.Add([]byte(provHeader + "240000000000,6,-1,-1,-1,-1,-1,2,0,NaN,+Inf,-0,1e-07,0,0,0\n"))
	f.Fuzz(func(t *testing.T, in []byte) {
		recs, err := ReadProvenanceCSV(bytes.NewReader(in))
		if err != nil {
			return
		}
		out := []byte(provHeader)
		for i := range recs {
			out = appendProvRow(out, &recs[i])
		}
		if !bytes.Equal(out, in) {
			t.Fatalf("accepted input re-encodes differently:\nin  %q\nout %q", in, out)
		}
	})
}
