package replay

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"esm/internal/core"
	"esm/internal/faults"
	"esm/internal/obs"
	"esm/internal/pdc"
	"esm/internal/policy"
	"esm/internal/simclock"
	"esm/internal/storage"
	"esm/internal/trace"
	"esm/internal/workload"
)

// itemFeedWorkloads are small instances of every closed-loop generator.
func itemFeedWorkloads(t *testing.T) []*workload.Workload {
	t.Helper()
	fs := workload.DefaultFileServerConfig()
	fs.Volumes, fs.Duration = 6, 20*time.Minute
	sensor := workload.DefaultSensorConfig()
	sensor.Streams, sensor.Duration = 8, 20*time.Minute
	syn := workload.DefaultSyntheticConfig()
	syn.Duration = 15 * time.Minute
	var out []*workload.Workload
	for _, gen := range []func() (*workload.Workload, error){
		func() (*workload.Workload, error) { return workload.GenerateFileServer(fs) },
		func() (*workload.Workload, error) {
			return workload.GenerateDSS(workload.DefaultDSSConfig().Scaled(0.03))
		},
		func() (*workload.Workload, error) { return workload.GenerateSensorArchive(sensor) },
		func() (*workload.Workload, error) { return workload.GenerateSynthetic(syn) },
	} {
		w, err := gen()
		if err != nil {
			t.Fatal(err)
		}
		if !w.ClosedLoop {
			t.Fatalf("%s replays open-loop", w.Name)
		}
		out = append(out, w)
	}
	return out
}

// itemFeedPolicy builds the named policy with periods short enough for
// the small workloads to see determinations.
func itemFeedPolicy(t *testing.T, name string) policy.Policy {
	t.Helper()
	switch name {
	case "none":
		return policy.NoPowerSaving{}
	case "esm":
		p := core.DefaultParams()
		p.InitialPeriod = 4 * time.Minute
		esm, err := core.NewESM(p)
		if err != nil {
			t.Fatal(err)
		}
		return esm
	case "pdc":
		cfg := pdc.DefaultConfig()
		cfg.Period = 4 * time.Minute
		return pdc.New(cfg)
	}
	t.Fatalf("no policy %q", name)
	return nil
}

// feedReplay replays w under the named policy from src with the
// decision log on, and returns the result and the log.
func feedReplay(t *testing.T, w *workload.Workload, pol string, fc *faults.Config, src trace.Source) (*Result, []byte) {
	t.Helper()
	var events bytes.Buffer
	rec := obs.New(obs.Options{Sink: obs.NewJSONLSink(&events), Label: w.Name + "/" + pol})
	run := Run{
		Catalog: w.Catalog, Source: src, Placement: w.Placement,
		Storage: storage.DefaultConfig(w.Enclosures), Policy: itemFeedPolicy(t, pol),
		Duration: w.Duration, ClosedLoop: true, Faults: fc,
		Telemetry: obs.Telemetry{Recorder: rec},
	}
	for _, win := range w.Windows {
		run.Windows = append(run.Windows, Window{Name: win.Name, Start: win.Start, End: win.End})
	}
	res, err := Execute(run)
	if err != nil {
		t.Fatal(err)
	}
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
	return res, events.Bytes()
}

// TestItemFeedMatchesDemux replays every closed-loop generator under
// three policies, and one under injected faults, from the workload's
// own source (the item feed) and from its collected trace (the demux),
// at GOMAXPROCS 1 (the feed generates inline) and 2 (on its producer).
// Both engines issue the global minimum (eff, item) each step, so the
// Results must be deeply equal and the decision logs byte-identical.
func TestItemFeedMatchesDemux(t *testing.T) {
	type feedCase struct {
		w   *workload.Workload
		pol string
		fc  *faults.Config
	}
	var cases []feedCase
	for _, w := range itemFeedWorkloads(t) {
		for _, pol := range []string{"none", "esm", "pdc"} {
			cases = append(cases, feedCase{w: w, pol: pol})
		}
		if w.Name == "fileserver" {
			cases = append(cases, feedCase{w: w, pol: "esm", fc: &faults.Config{Seed: 42, SpinUpFailProb: 0.3, TransientIOProb: 0.01}})
		}
	}
	for _, c := range cases {
		recs, err := trace.CollectSource(c.w.Source())
		if err != nil {
			t.Fatal(err)
		}
		for _, procs := range []int{1, 2} {
			name := fmt.Sprintf("%s/%s/faults=%v/procs=%d", c.w.Name, c.pol, c.fc != nil, procs)
			t.Run(name, func(t *testing.T) {
				readAheadProcs(t, procs)
				demux, demuxEv := feedReplay(t, c.w, c.pol, c.fc, trace.NewSliceSource(recs))
				feed, feedEv := feedReplay(t, c.w, c.pol, c.fc, c.w.Source())
				// Without power saving nothing is decided or logged; the
				// Results still compare every record's response.
				if demux.Resp.Count() == 0 || c.pol != "none" && (len(demuxEv) == 0 || demux.Determinations == 0) {
					t.Fatal("the replay exercised nothing worth comparing")
				}
				if c.fc != nil && demux.Faults.Total() == 0 {
					t.Fatal("the fault scenario injected nothing")
				}
				if !reflect.DeepEqual(feed, demux) {
					t.Errorf("item-feed Result differs from the demux's: %d vs %d records, %.6f vs %.6f J",
						feed.Resp.Count(), demux.Resp.Count(), feed.EnergyJ, demux.EnergyJ)
				}
				if !bytes.Equal(feedEv, demuxEv) {
					t.Errorf("decision logs differ at byte %d", firstDiff(feedEv, demuxEv))
				}
			})
		}
	}
}

// streamsSource is a hand-built source that splits by item.
type streamsSource struct {
	trace.Source
	streams []trace.ItemStream
	limit   time.Duration
}

func (s *streamsSource) ItemStreams() ([]trace.ItemStream, time.Duration) {
	return s.streams, s.limit
}

// seqOf yields item's records at the given times, 4 KiB reads, and
// calls onYield (if set) before each.
func seqOf(item trace.ItemID, times []time.Duration, onYield func(i int)) func(func(trace.LogicalRecord) bool) {
	return func(yield func(trace.LogicalRecord) bool) {
		for i, at := range times {
			if onYield != nil {
				onYield(i)
			}
			if !yield(trace.LogicalRecord{Time: at, Item: item, Size: 4096, Op: trace.OpRead}) {
				return
			}
		}
	}
}

// steadyTimes is n records one second apart from start.
func steadyTimes(start time.Duration, n int) []time.Duration {
	out := make([]time.Duration, n)
	for i := range out {
		out[i] = start + time.Duration(i)*time.Second
	}
	return out
}

// streamsRun is a closed-loop NoPowerSaving run over hand-built item
// streams of a two-item catalog.
func streamsRun(streams []trace.ItemStream) Run {
	r := genRun(nil, 2, true)
	r.Source = &streamsSource{streams: streams, limit: r.Duration}
	return r
}

// orderPolicy records the records in the order they are issued.
type orderPolicy struct {
	policy.NoPowerSaving
	seen []trace.LogicalRecord
}

func (p *orderPolicy) OnLogical(rec trace.LogicalRecord) { p.seen = append(p.seen, rec) }

// TestItemFeedStartTies pins the tie at a From: an item whose first
// record falls exactly at its From, at the time of a started item's
// record, issues first when its ItemID is lower, as the demux issues
// it; a start that let the started item go first on the tie would slip
// through generated traces, where such ties are rare.
func TestItemFeedStartTies(t *testing.T) {
	streams := []trace.ItemStream{
		{Item: 1, Seq: seqOf(1, steadyTimes(0, 10), nil)},
		{Item: 0, From: 5 * time.Second, Seq: seqOf(0, steadyTimes(5*time.Second, 10), nil)},
	}
	srcs := make([]trace.Source, len(streams))
	for i, st := range streams {
		srcs[i] = st.Open(time.Hour)
	}
	recs, err := trace.CollectSource(trace.MergeSources(srcs...))
	if err != nil {
		t.Fatal(err)
	}
	issued := func(src trace.Source) []trace.LogicalRecord {
		r := streamsRun(streams)
		p := &orderPolicy{}
		r.Policy = p
		if src != nil {
			r.Source = src
		}
		if _, err := Execute(r); err != nil {
			t.Fatal(err)
		}
		return p.seen
	}
	feed, demux := issued(nil), issued(trace.NewSliceSource(recs))
	if len(demux) != len(recs) || demux[5].Item != 0 {
		t.Fatalf("the demux issued %d records, the sixth of item %d; want %d, item 0", len(demux), demux[5].Item, len(recs))
	}
	if !reflect.DeepEqual(feed, demux) {
		t.Errorf("the item feed issued %v, the demux %v", feed, demux)
	}
}

// TestItemFeedRejectsBadStream feeds the item feed a stream whose first
// record precedes its declared From and one that goes back in time
// mid-stream (as the merged stream of an item with several streams and
// as an item's only stream). Each must fail the replay with a
// *trace.OrderError in an error that names the item and the stream.
func TestItemFeedRejectsBadStream(t *testing.T) {
	good := trace.ItemStream{Item: 0, Seq: seqOf(0, steadyTimes(0, 200), nil)}
	cases := []struct {
		name string
		bad  trace.ItemStream
		want string
	}{
		{"before-from", trace.ItemStream{Item: 1, From: time.Minute, Seq: seqOf(1, steadyTimes(30*time.Second, 200), nil)}, "item 1 (item1), stream 1"},
		{"backwards", trace.ItemStream{Item: 1, Seq: seqOf(1, append(steadyTimes(0, 150), time.Second), nil)}, "item 1 (item1), stream 1"},
		{"backwards-merged", trace.ItemStream{Item: 0, Seq: seqOf(0, append(steadyTimes(0, 150), time.Second), nil)}, "item 0 (item0), stream 1"},
	}
	for _, c := range cases {
		for _, procs := range []int{1, 2} {
			readAheadProcs(t, procs)
			_, err := Execute(streamsRun([]trace.ItemStream{good, c.bad}))
			var oe *trace.OrderError
			if !errors.As(err, &oe) {
				t.Fatalf("%s procs=%d: error %v, want a *trace.OrderError", c.name, procs, err)
			}
			if !strings.Contains(err.Error(), c.want) {
				t.Errorf("%s procs=%d: error %q does not name %q", c.name, procs, err, c.want)
			}
		}
	}
}

// TestItemProducerStopsMidRun ends an item-feed replay early, on a bad
// stream, while the producer still has most of every stream to
// generate. Execute must return only once the producer has exited and
// every generator has stopped, so no goroutine outlives the run and no
// generator runs after Execute returned.
func TestItemProducerStopsMidRun(t *testing.T) {
	readAheadProcs(t, 2)
	before := runtime.NumGoroutine()
	returned := false
	misused := false
	watch := func(int) {
		if returned {
			misused = true
		}
	}
	streams := []trace.ItemStream{
		{Item: 0, Seq: seqOf(0, steadyTimes(0, 3000), watch)},
		{Item: 1, Seq: seqOf(1, append(steadyTimes(0, 500), time.Second), watch)},
	}
	_, err := Execute(streamsRun(streams))
	returned = true
	var oe *trace.OrderError
	if !errors.As(err, &oe) {
		t.Fatalf("error %v, want a *trace.OrderError", err)
	}
	settleGoroutines(t, before)
	if misused {
		t.Error("a generator ran after Execute returned")
	}
}

// TestItemProducerSourcePanic: a generator that panics makes Execute
// panic on the caller's goroutine with the panic value, whichever side
// filled the batch, and leaves no goroutine behind. On the producer,
// driven directly below, a panic comes back as an error that wraps the
// value and carries the producer's stack, and a generator that ends
// its goroutine comes back as trace.ErrSourceExited.
func TestItemProducerSourcePanic(t *testing.T) {
	readAheadProcs(t, 2)
	before := runtime.NumGoroutine()
	failAt := func(n int, fail func()) func(int) {
		return func(i int) {
			if i == n {
				fail()
			}
		}
	}
	got := func() (p any) {
		defer func() { p = recover() }()
		Execute(streamsRun([]trace.ItemStream{
			{Item: 0, Seq: seqOf(0, steadyTimes(0, 3000), nil)},
			{Item: 1, Seq: seqOf(1, steadyTimes(0, 3000), failAt(1000, func() { panic(errGenPanic) }))},
		}))
		return nil
	}()
	if err, _ := got.(error); !errors.Is(err, errGenPanic) {
		t.Fatalf("recovered %v, want an error wrapping %v", got, errGenPanic)
	}
	settleGoroutines(t, before)

	for _, c := range []struct {
		name  string
		fail  func()
		check func(b *itemBatch) bool
	}{
		{"panic", func() { panic(errGenPanic) }, func(b *itemBatch) bool {
			return b.pval != nil && errors.Is(b.pval, errGenPanic) && strings.Contains(b.pval.Error(), "(*itemProducer).produce")
		}},
		{"goexit", runtime.Goexit, func(b *itemBatch) bool { return b.err == trace.ErrSourceExited }},
	} {
		r := trace.ItemStream{Item: 0, Seq: seqOf(0, steadyTimes(0, 10), failAt(3, c.fail))}.Open(time.Hour)
		p := newItemProducer([]itemFeed{{streams: []feedStream{{ItemReader: r}}}}, 1)
		b := &itemBatch{item: 0}
		p.claims[0].Store(b)
		p.refill <- itemAsk{item: 0, b: b}
		filled := <-p.done
		p.stop()
		r.Close()
		if filled != b || !filled.last || !c.check(filled) {
			t.Errorf("%s: the producer sent back %+v (err %v, panic %v)", c.name, filled, filled.err, filled.pval)
		}
	}
	settleGoroutines(t, before)
}

// TestItemProducerInlineAtOneProc pins where the item feed generates:
// on a producer goroutine with a second processor, inline at GOMAXPROCS
// 1, where a hand-off would have no core to overlap with. Either way
// the loop replays every record and leaves no goroutine running.
func TestItemProducerInlineAtOneProc(t *testing.T) {
	for _, procs := range []int{1, 2} {
		readAheadProcs(t, procs)
		before := runtime.NumGoroutine()
		r := streamsRun([]trace.ItemStream{
			{Item: 0, Seq: seqOf(0, steadyTimes(0, 2000), nil)},
			{Item: 1, From: time.Minute, Seq: seqOf(1, steadyTimes(time.Minute, 2000), nil)},
		})
		var clk simclock.Clock
		var evq simclock.EventQueue
		n := 0
		submit := func(trace.LogicalRecord, time.Duration) (time.Duration, error) {
			n++
			return time.Millisecond, nil
		}
		il, err := newItemLoop(r.Source, r.Catalog, &clk, &evq, submit)
		if err != nil {
			t.Fatal(err)
		}
		if ahead := il.prod != nil; ahead != (procs > 1) {
			t.Errorf("procs=%d: producer %v, want %v", procs, ahead, procs > 1)
		}
		err = il.run()
		il.close()
		if err != nil {
			t.Fatal(err)
		}
		if n != 4000 {
			t.Errorf("procs=%d: submitted %d records, want 4000", procs, n)
		}
		settleGoroutines(t, before)
	}
}
