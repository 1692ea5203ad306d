package obs

import (
	"bytes"
	"errors"
	"io"
	"testing"
	"time"
)

// TestNilProvenanceSafe pins the nil-receiver contract of the decision
// log's provenance half: a nil *Recorder accepts every call, returns
// empty views, and allocates nothing on the record path.
func TestNilProvenanceSafe(t *testing.T) {
	var r *Recorder
	r.ConfigurePower(300, 10*time.Second)
	r.Log(time.Second, decisionRec(Decision{Kind: DecisionMove, Item: 7}))
	r.Log(time.Second, powerRec(0, "spinup", CauseDemand))
	r.Log(time.Second, cacheRec(EvCacheSelect, "preload", 1, 2))
	r.RecordAttribution(time.Second, &Attribution{})
	if err := r.Close(); err != nil {
		t.Fatalf("nil recorder Close = %v", err)
	}
	if sum := r.Summary(); sum != nil {
		t.Fatalf("nil recorder Summary = %v", sum)
	}

	// The records are built once: a Log argument escapes, so building
	// one costs its payload whatever the receiver (decision sites skip
	// that while Telemetry.Logging is false).
	records := []Event{
		{Type: EvDecision, Decision: &Decision{Kind: DecisionMove, Item: 7, IntervalS: 60}},
		{Type: EvPowerOn, Power: &PowerEvent{Enclosure: 0, State: "spinup", Cause: CauseDemand}},
		{Type: EvMigrationDone, Migration: &MigrationEvent{Item: 7, Src: 0, Dst: 1}},
		{Type: EvFault, Fault: &FaultEvent{Kind: "spinup-fail"}},
	}
	allocs := testing.AllocsPerRun(1000, func() {
		for _, ev := range records {
			r.Log(time.Second, ev)
		}
	})
	if allocs != 0 {
		t.Fatalf("nil record path allocates: %v allocs/run", allocs)
	}
}

// retained reads back the records tl holds, oldest first, and how many
// it has let go.
func retained(t *testing.T, tl *Tail) ([]Event, int64) {
	t.Helper()
	lines, dropped := tl.window(0, 0)
	events, err := ReadEvents(bytes.NewReader(lines))
	if err != nil {
		t.Fatal(err)
	}
	return events, dropped
}

// TestProvenanceTail drives the log past its live tail and checks that
// the tail keeps the last tailEvents lines of the file in order,
// decisions intact although their payload is reused, and counts the
// rest as dropped, while the counters and the file keep every record.
// Every 1000th record is a long cache listing, so the retained lines
// vary in length as the tail lets the oldest go.
func TestProvenanceTail(t *testing.T) {
	var buf bytes.Buffer
	tl := new(Tail)
	r := New(Options{Log: &buf, Tail: tl})
	const rows = 3 * tailEvents
	items := make([]int64, 500)
	var dec Decision // one payload for every decision, as at a decision site
	decisions := 0
	for i := 0; i < rows; i++ {
		at := time.Duration(i) * time.Second
		if i%1000 == 999 {
			r.Log(at, Event{Type: EvCacheSelect, Cache: &CacheEvent{Function: "preload", Items: items}})
			continue
		}
		decisions++
		dec = Decision{Kind: DecisionReclass, Det: int64(i + 1), Cause: CausePeriodEnd, Item: int64(i), Class: 1, PrevClass: 3, Src: 1, Dst: -1}
		r.Log(at, Event{Type: EvDecision, Decision: &dec})
	}
	tail, dropped := retained(t, tl)
	lines, _ := tl.window(0, 0)
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	sum := r.Summary()
	if sum.Rows != rows || sum.Decisions != int64(decisions) {
		t.Fatalf("rows %d, decisions %d; want %d, %d", sum.Rows, sum.Decisions, rows, decisions)
	}
	if dropped != rows-tailEvents {
		t.Fatalf("dropped %d, want %d", dropped, rows-tailEvents)
	}
	if len(tail) != tailEvents {
		t.Fatalf("tail holds %d records, want %d", len(tail), tailEvents)
	}
	for i, ev := range tail {
		if want := int64(rows - tailEvents + i + 1); ev.Seq != want || (ev.Decision != nil && ev.Decision.Det != want) {
			t.Fatalf("tail[%d] is record %d, want %d", i, ev.Seq, want)
		}
	}
	if !bytes.HasSuffix(buf.Bytes(), lines) {
		t.Fatal("the tail is not the file's last lines")
	}
	events, err := ReadEvents(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != rows {
		t.Fatalf("stream holds %d records, want %d", len(events), rows)
	}
	for i, ev := range events {
		if ev.Seq != int64(i+1) || (ev.Decision != nil && ev.Decision.Det != int64(i+1)) {
			t.Fatalf("stream record %d is seq %d", i, ev.Seq)
		}
	}
}

// TestRecorderLogSteadyStateAllocs pins the decision log's record path
// once warm: logging a decision to a file and a full tail encodes it
// once and allocates nothing, and so does each set-up alone.
func TestRecorderLogSteadyStateAllocs(t *testing.T) {
	if raceBuild {
		t.Skip("the race detector's sync.Pool drops the encoder's state at random")
	}
	for _, c := range []struct {
		name string
		opts Options
	}{
		{"file", Options{Log: io.Discard}},
		{"tail", Options{Tail: new(Tail)}},
		{"file+tail", Options{Log: io.Discard, Tail: new(Tail)}},
	} {
		r := New(c.opts)
		var dec Decision
		n := 0
		logOne := func() {
			n++
			dec = Decision{Kind: DecisionMove, Det: int64(n), Cause: CausePeriodEnd, Item: int64(n % 1000), Class: 1, PrevClass: 3, Src: 1, Dst: 2, IntervalS: 120.5, ReadRatio: 0.25, ToCold: true}
			r.Log(time.Duration(n)*time.Second, Event{Type: EvDecision, Decision: &dec})
		}
		for range 3 * tailEvents {
			logOne()
		}
		if allocs := testing.AllocsPerRun(1000, logOne); allocs != 0 {
			t.Errorf("%s: %v allocs per logged decision, want 0", c.name, allocs)
		}
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
// and that records after the failure still reach the tail and
// counters.
func TestProvenanceWriteErrorSurfaces(t *testing.T) {
	w := &failingWriter{failAt: 3}
	tl := new(Tail)
	r := New(Options{Log: w, Tail: tl})
	const rows = 1000 // far more than the buffer holds
	for i := 0; i < rows; i++ {
		r.Log(time.Duration(i)*time.Second, powerRec(i%4, "spinup", CauseDemand))
	}
	if w.writes < w.failAt {
		t.Fatalf("the writer saw %d writes; the case never fails", w.writes)
	}
	if err := r.Close(); !errors.Is(err, errDiskFull) {
		t.Fatalf("Close = %v, want %v", err, errDiskFull)
	}
	if !w.closed {
		t.Fatal("Close did not close the writer")
	}
	if sum := r.Summary(); sum.Rows != rows || sum.Transitions != rows {
		t.Fatalf("counters stopped at the failure: %+v", sum)
	}
	if tail, _ := retained(t, tl); len(tail) != rows || tail[rows-1].T != int64((rows-1)*time.Second) {
		t.Fatalf("tail holds %d records, want %d ending at the last", len(tail), rows)
	}
}

// TestProvenanceRoundTrip logs one record of every kind the provenance
// report reads and checks the file holds the very bytes of the live
// tail and reads back intact, with the roll-up counting each kind.
func TestProvenanceRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	tl := new(Tail)
	r := New(Options{Log: &buf, Tail: tl})
	r.Log(10*time.Second, decisionRec(Decision{
		Kind: DecisionMove, Det: 1, Cause: CausePeriodEnd, Item: 7, Class: 3,
		PrevClass: -1, Src: 0, Dst: 2, IntervalS: 120, ReadRatio: 0.75,
		CostSrc: 5.5, CostDst: 0.25, ToCold: true,
	}))
	r.Log(10*time.Second, decisionRec(Decision{
		Kind: DecisionReclass, Det: 1, Cause: CausePeriodEnd, Item: 8, Class: 1, PrevClass: 3, Src: 1,
		Dst: -1,
	}))
	r.Log(10*time.Second, Event{Type: EvDetermination, Determination: &DeterminationEvent{N: 1}})
	r.Log(11*time.Second, powerRec(2, "spinup", CauseMigration))
	r.Log(26*time.Second, powerRec(2, "on", CauseMigration))
	r.Log(27*time.Second, migrationRec(EvMigrationStart, 7, 0, 2, 1<<20))
	r.Log(30*time.Second, migrationRec(EvMigrationDone, 7, 0, 2, 1<<20))
	r.Log(31*time.Second, cacheRec(EvCacheSelect, "preload", 8))
	r.Log(32*time.Second, cacheRec(EvCacheEvict, "write-delay", 9, 10))
	r.Log(32*time.Second, cacheRec(EvCacheEvict, "write-delay"))
	r.Log(40*time.Second, Event{Type: EvFault, Fault: &FaultEvent{Kind: "spinup-fail", Enclosure: 3}})
	r.RecordAttribution(60*time.Second, &Attribution{
		Enclosures: []EnclosureAttribution{
			{Enclosure: 1},
			{Enclosure: 2, ByItem: []ItemEnergy{{Item: 7, Class: 3, Joules: 123.5}}},
		},
	})

	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	if lines, _ := tl.window(0, 0); !bytes.Equal(lines, buf.Bytes()) {
		t.Fatalf("the tail and the file diverged:\ntail %s\nfile %s", lines, buf.Bytes())
	}
	decoded, err := ReadEvents(&buf)
	if err != nil {
		t.Fatal(err)
	}
	// The empty eviction and the enclosure with no attributed items
	// leave no record.
	if len(decoded) != 11 {
		t.Fatalf("log kept %d records, want 11: %+v", len(decoded), decoded)
	}

	// Spot-check the semantics survived: the move carries its
	// predicted deltas with to-cold signs (saves joules, costs latency).
	move := decoded[0].Decision
	if move.PredDJ >= 0 || move.PredDUS <= 0 {
		t.Fatalf("to-cold move predicts dj=%g dus=%g; want dj<0, dus>0", move.PredDJ, move.PredDUS)
	}
	if move.Cause != CausePeriodEnd || move.Item != 7 || move.Src != 0 || move.Dst != 2 || move.CostSrc != 5.5 {
		t.Fatalf("move corrupted: %+v", move)
	}
	if a := decoded[10].Attribution; a == nil || a.Enclosure != 2 || len(a.Items) != 1 || a.Items[0].Joules != 123.5 {
		t.Fatalf("attribution corrupted: %+v", decoded[10])
	}
	sum := r.Summary()
	if sum.Rows != 11 || sum.Determinations != 1 || sum.Decisions != 2 || sum.Transitions != 2 || sum.Migrations != 1 || sum.Faults != 1 {
		t.Fatalf("summary counters wrong: %+v", sum)
	}
}

// TestProvenancePredictedDeltas pins the first-order move economics
// and that ConfigurePower overrides the electrical constants.
func TestProvenancePredictedDeltas(t *testing.T) {
	tl := new(Tail)
	r := New(Options{Tail: tl})
	r.ConfigurePower(100, 10*time.Second)
	r.Log(time.Second, decisionRec(Decision{Kind: DecisionMove, Det: 1, Item: 1, IntervalS: 60, ReadRatio: 0.5, ToCold: true}))
	r.Log(time.Second, decisionRec(Decision{Kind: DecisionMove, Det: 1, Item: 2, IntervalS: 60, ReadRatio: 0.5, ToCold: false}))
	tail, _ := retained(t, tl)
	if len(tail) != 2 {
		t.Fatalf("tail holds %d records, want 2", len(tail))
	}
	// To cold: saves idleW x interval = 100 x 60 J, costs spin-up
	// exposure = 10s x 0.5 read ratio = 5e6 us.
	if d := tail[0].Decision; d.PredDJ != -6000 || d.PredDUS != 5e6 {
		t.Fatalf("to-cold deltas: dj=%g dus=%g, want -6000, 5e6", d.PredDJ, d.PredDUS)
	}
	if d := tail[1].Decision; d.PredDJ != 6000 || d.PredDUS != -5e6 {
		t.Fatalf("to-hot deltas: dj=%g dus=%g, want 6000, -5e6", d.PredDJ, d.PredDUS)
	}
}

// TestEmptyProvenanceIsValidFile checks that a log that recorded
// nothing is still a file the reader accepts: an empty one.
func TestEmptyProvenanceIsValidFile(t *testing.T) {
	var buf bytes.Buffer
	if err := New(Options{Log: &buf}).Close(); err != nil {
		t.Fatal(err)
	}
	if buf.Len() != 0 {
		t.Fatalf("empty log is %q, want no bytes", buf.String())
	}
	events, err := ReadEvents(&buf)
	if err != nil || len(events) != 0 {
		t.Fatalf("empty log reads as %d events, %v", len(events), err)
	}
}
