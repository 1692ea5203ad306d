package replay

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"esm/internal/core"
	"esm/internal/faults"
	"esm/internal/obs"
	"esm/internal/policy"
	"esm/internal/storage"
	"esm/internal/trace"
)

// writeStreamFile writes recs as a stream-format trace file and
// returns its path.
func writeStreamFile(t testing.TB, recs []trace.LogicalRecord) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "recs.stream")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	sw := trace.NewStreamWriter(f)
	for _, rec := range recs {
		if err := sw.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := sw.Close(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

// genSource generates a long steady trace lazily: one record per
// millisecond, round-robin over items. At record badAt (if positive) it
// yields an item past the catalog; at failAt (if positive) it fails
// with errGenFailed; at panicAt (if positive) it panics with
// errGenPanic; at exitAt (if positive) it ends its goroutine.
type genSource struct {
	n, total                       int
	items                          int
	badAt, failAt, panicAt, exitAt int
	failed                         bool
}

var (
	errGenFailed = errors.New("generator failed")
	errGenPanic  = errors.New("generator panicked")
)

func (s *genSource) Next() (trace.LogicalRecord, bool) {
	switch {
	case s.n >= s.total:
		return trace.LogicalRecord{}, false
	case s.n == s.failAt && s.failAt > 0:
		s.failed = true
		return trace.LogicalRecord{}, false
	case s.n == s.panicAt && s.panicAt > 0:
		panic(errGenPanic)
	case s.n == s.exitAt && s.exitAt > 0:
		runtime.Goexit()
	}
	item := trace.ItemID(s.n % s.items)
	if s.n == s.badAt && s.badAt > 0 {
		item = trace.ItemID(s.items)
	}
	rec := trace.LogicalRecord{
		Time: time.Duration(s.n) * time.Millisecond,
		Item: item, Offset: int64(s.n%8) * 4096, Size: 4096, Op: trace.OpRead,
	}
	s.n++
	return rec, true
}

func (s *genSource) Err() error {
	if s.failed {
		return errGenFailed
	}
	return nil
}

// guardedSource flags any Next after the caller closed it. closed and
// misused are plain fields, so a producer still reading after Execute
// returned is also a data race the race detector reports.
type guardedSource struct {
	trace.Source
	closed, misused bool
}

func (g *guardedSource) Next() (trace.LogicalRecord, bool) {
	if g.closed {
		g.misused = true
	}
	return g.Source.Next()
}

// genRun is a NoPowerSaving run over genSource's catalog.
func genRun(src trace.Source, items int, closedLoop bool) Run {
	cat := trace.NewCatalog()
	placement := make([]int, items)
	for i := range placement {
		cat.Add(fmt.Sprintf("item%d", i), 64<<20)
		placement[i] = i % 2
	}
	return Run{
		Catalog: cat, Source: src, Placement: placement,
		Storage: storage.DefaultConfig(2), Policy: &wrappedPolicy{Policy: policy.NoPowerSaving{}},
		Duration: time.Hour, ClosedLoop: closedLoop,
	}
}

// readAheadProcs sets GOMAXPROCS for the rest of the test, so the
// read-ahead tests run the producer even under go test -cpu 1.
func readAheadProcs(t *testing.T, n int) {
	prev := runtime.GOMAXPROCS(n)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}

// TestReadAheadOnlyWhereItCanOverlap pins which sources Execute reads
// ahead: any but a SliceSource, and only with a second processor.
func TestReadAheadOnlyWhereItCanOverlap(t *testing.T) {
	for _, procs := range []int{1, 2} {
		readAheadProcs(t, procs)
		slice := trace.NewSliceSource(nil)
		if src, stop := readAheadOf(slice); src != slice {
			t.Errorf("GOMAXPROCS %d: a SliceSource was read ahead", procs)
		} else {
			stop()
		}
		gen := &genSource{total: 10, items: 1}
		src, stop := readAheadOf(gen)
		if _, ahead := src.(*trace.ReadAhead); ahead != (procs > 1) {
			t.Errorf("GOMAXPROCS %d: read ahead %v, want %v", procs, ahead, procs > 1)
		}
		stop()
	}
}

// producedAhead records whether its source's first Next ran on the
// read-ahead's producer goroutine.
type producedAhead struct {
	trace.Source
	checked, ahead bool
}

func (p *producedAhead) Next() (trace.LogicalRecord, bool) {
	if !p.checked {
		p.checked = true
		pc := make([]uintptr, 16)
		frames := runtime.CallersFrames(pc[:runtime.Callers(2, pc)])
		for {
			f, more := frames.Next()
			p.ahead = p.ahead || strings.HasSuffix(f.Function, ".(*ReadAhead).produce")
			if !more {
				break
			}
		}
	}
	return p.Source.Next()
}

// settleGoroutines waits for the goroutine count to fall back to want:
// a producer signals its exit just before it returns.
func settleGoroutines(t *testing.T, want int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for runtime.NumGoroutine() > want {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after Execute returned, want %d", runtime.NumGoroutine(), want)
		}
		runtime.Gosched()
		time.Sleep(time.Millisecond)
	}
}

// TestReadAheadMatchesDirect replays the same faulted, telemetry-on ESM
// trace from a stream file (read ahead) and from a SliceSource (read
// directly), open and closed loop: the Results and event streams must
// be identical.
func TestReadAheadMatchesDirect(t *testing.T) {
	readAheadProcs(t, 2)
	const dur = 2 * time.Hour
	cat, recs, placement := skewedTrace(dur, 99)
	if len(recs) < 4*trace.ReadAheadBatches*trace.ReadAheadBatch/2 {
		t.Fatalf("%d records do not cycle the read-ahead batches", len(recs))
	}
	path := writeStreamFile(t, recs)
	run := func(src trace.Source, closedLoop bool) (*Result, []byte) {
		params := core.DefaultParams()
		params.InitialPeriod = 4 * time.Minute
		esm, err := core.NewESM(params)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		rec := obs.New(obs.Options{Log: &buf, Label: "ra"})
		res, err := Execute(Run{
			Catalog: cat, Source: src, Placement: placement,
			Storage: storage.DefaultConfig(4), Policy: esm, Duration: dur,
			ClosedLoop: closedLoop,
			Faults:     &faults.Config{Seed: 42, SpinUpFailProb: 0.3, TransientIOProb: 0.01},
			Telemetry:  obs.Telemetry{Recorder: rec},
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := rec.Close(); err != nil {
			t.Fatal(err)
		}
		return res, buf.Bytes()
	}
	for _, closedLoop := range []bool{false, true} {
		fs, err := trace.OpenFile(path)
		if err != nil {
			t.Fatal(err)
		}
		ahead, aheadEv := run(fs, closedLoop)
		fs.Close()
		direct, directEv := run(trace.NewSliceSource(recs), closedLoop)
		if direct.Resp.Count() == 0 || direct.Determinations == 0 || len(directEv) == 0 {
			t.Fatalf("closed=%v: the fixture replayed nothing worth comparing", closedLoop)
		}
		if !reflect.DeepEqual(ahead, direct) {
			t.Errorf("closed=%v: read-ahead Result differs from the direct one", closedLoop)
		}
		if !bytes.Equal(aheadEv, directEv) {
			t.Errorf("closed=%v: event streams differ at byte %d", closedLoop, firstDiff(aheadEv, directEv))
		}
	}
}

// TestReadAheadSourceErrorMatchesDirect fails a source mid-stream and
// checks that Execute reports the same error text after submitting the
// same records as the direct source loop.
func TestReadAheadSourceErrorMatchesDirect(t *testing.T) {
	readAheadProcs(t, 2)
	const items = 6
	failAt := 3*trace.ReadAheadBatch + 37
	for _, closedLoop := range []bool{false, true} {
		r := genRun(&genSource{total: 100_000, items: items, failAt: failAt}, items, closedLoop)
		s, err := NewSession(r)
		if err != nil {
			t.Fatal(err)
		}
		directErr := s.replay(r.Source)
		directN := r.Policy.(*wrappedPolicy).logical

		r = genRun(&genSource{total: 100_000, items: items, failAt: failAt}, items, closedLoop)
		_, aheadErr := Execute(r)
		aheadN := r.Policy.(*wrappedPolicy).logical

		if directErr == nil || aheadErr == nil || !errors.Is(aheadErr, errGenFailed) {
			t.Fatalf("closed=%v: errors %v (direct), %v (read ahead); want both to wrap %v", closedLoop, directErr, aheadErr, errGenFailed)
		}
		if aheadErr.Error() != directErr.Error() {
			t.Errorf("closed=%v: error %q, direct %q", closedLoop, aheadErr, directErr)
		}
		if aheadN != directN || directN == 0 {
			t.Errorf("closed=%v: %d records submitted, direct %d", closedLoop, aheadN, directN)
		}
	}
}

// TestReadAheadEarlyExitStopsProducer ends Execute early while the
// producer still has most of a long source to read: an item outside
// the catalog (open loop: the array's unplaced-item error; closed loop:
// the demux's catalog check) and a mid-stream source error. Execute
// must return only once the producer has exited, so the caller may
// close the source at once, and no goroutine may outlive the run.
func TestReadAheadEarlyExitStopsProducer(t *testing.T) {
	readAheadProcs(t, 2)
	const items = 6
	recs, err := trace.CollectSource(&genSource{total: 20_000, items: items, badAt: 2500})
	if err != nil {
		t.Fatal(err)
	}
	path := writeStreamFile(t, recs)
	cases := []struct {
		name string
		src  func() trace.Source
		want string
	}{
		{"outside-catalog", func() trace.Source { return &genSource{total: 1_000_000, items: items, badAt: 2500} }, "item 6"},
		{"source-error", func() trace.Source { return &genSource{total: 1_000_000, items: items, failAt: 2500} }, errGenFailed.Error()},
		{"file-outside-catalog", func() trace.Source {
			fs, err := trace.OpenFile(path)
			if err != nil {
				t.Fatal(err)
			}
			return fs
		}, "item 6"},
	}
	for _, c := range cases {
		for _, closedLoop := range []bool{false, true} {
			before := runtime.NumGoroutine()
			inner := c.src()
			g := &guardedSource{Source: inner}
			_, err := Execute(genRun(g, items, closedLoop))
			g.closed = true
			if cl, ok := inner.(interface{ Close() error }); ok {
				if err := cl.Close(); err != nil {
					t.Fatal(err)
				}
			}
			if err == nil || !bytes.Contains([]byte(err.Error()), []byte(c.want)) {
				t.Fatalf("%s closed=%v: error %v, want one naming %q", c.name, closedLoop, err, c.want)
			}
			settleGoroutines(t, before)
			if g.misused {
				t.Errorf("%s closed=%v: the source was read after Execute returned", c.name, closedLoop)
			}
		}
	}
}

// TestReadAheadCloseAfterExecute replays a stream file to its end and
// closes it the moment Execute returns; under -race any read of the
// source still in flight is reported.
func TestReadAheadCloseAfterExecute(t *testing.T) {
	readAheadProcs(t, 2)
	const items = 6
	recs, err := trace.CollectSource(&genSource{total: 10 * trace.ReadAheadBatch, items: items})
	if err != nil {
		t.Fatal(err)
	}
	path := writeStreamFile(t, recs)
	for _, closedLoop := range []bool{false, true} {
		before := runtime.NumGoroutine()
		fs, err := trace.OpenFile(path)
		if err != nil {
			t.Fatal(err)
		}
		g := &guardedSource{Source: fs}
		r := genRun(g, items, closedLoop)
		res, err := Execute(r)
		g.closed = true
		if cerr := fs.Close(); cerr != nil {
			t.Fatal(cerr)
		}
		if err != nil {
			t.Fatal(err)
		}
		if res.Resp.Count() != int64(len(recs)) {
			t.Fatalf("closed=%v: replayed %d of %d records", closedLoop, res.Resp.Count(), len(recs))
		}
		settleGoroutines(t, before)
		if g.misused {
			t.Errorf("closed=%v: the source was read after Execute returned", closedLoop)
		}
	}
}

// TestReadAheadSourcePanic: a source whose Next panics makes Execute
// panic on the caller's goroutine, after the records before the panic
// were submitted, with an error that wraps the source's value and
// carries the producer's stack down to the source's frame; a source
// that ends its goroutine instead surfaces as an error, not a hang.
func TestReadAheadSourcePanic(t *testing.T) {
	readAheadProcs(t, 2)
	const items = 6
	panicAt := 2*trace.ReadAheadBatch + 5
	for _, closedLoop := range []bool{false, true} {
		before := runtime.NumGoroutine()
		r := genRun(&genSource{total: 100_000, items: items, panicAt: panicAt}, items, closedLoop)
		got := func() (p any) {
			defer func() { p = recover() }()
			Execute(r)
			return nil
		}()
		err, _ := got.(error)
		if !errors.Is(err, errGenPanic) {
			t.Fatalf("closed=%v: recovered %v, want an error wrapping %v", closedLoop, got, errGenPanic)
		}
		if !strings.Contains(err.Error(), "(*genSource).Next") {
			t.Errorf("closed=%v: the re-raised panic does not show the source's frame:\n%v", closedLoop, err)
		}
		if n := r.Policy.(*wrappedPolicy).logical; !closedLoop && n != panicAt {
			t.Errorf("open loop submitted %d records before the panic, want %d", n, panicAt)
		}
		settleGoroutines(t, before)

		r = genRun(&genSource{total: 100_000, items: items, exitAt: panicAt}, items, closedLoop)
		if _, err := Execute(r); !errors.Is(err, trace.ErrSourceExited) {
			t.Fatalf("closed=%v: a source that ended its goroutine gave %v, want %v", closedLoop, err, trace.ErrSourceExited)
		}
		settleGoroutines(t, before)
	}
}

// TestReadAheadSteadyStateAllocs pins Execute's marginal allocation
// cost per record through the read-ahead at zero: the batches are
// recycled between the goroutines, so doubling the record count adds
// no allocations (the producer, its batches and the session's set-up
// cancel in the margin). testing.AllocsPerRun cannot measure this: it
// runs at GOMAXPROCS 1, where Execute reads every source directly. So
// the test counts the process's mallocs itself, at GOMAXPROCS 2, and
// checks that every measured run's records came from the producer.
func TestReadAheadSteadyStateAllocs(t *testing.T) {
	readAheadProcs(t, 2)
	const items, n, runs = 4, 20 * trace.ReadAheadBatch, 5
	for _, closedLoop := range []bool{false, true} {
		execute := func(total int) {
			src := &producedAhead{Source: &genSource{total: total, items: items}}
			if _, err := Execute(genRun(src, items, closedLoop)); err != nil {
				t.Fatal(err)
			}
			if !src.ahead {
				t.Fatalf("closed=%v: the source was not read on the producer goroutine", closedLoop)
			}
		}
		allocs := func(total int) float64 {
			execute(total) // warm up
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for range runs {
				execute(total)
			}
			runtime.ReadMemStats(&after)
			return float64(after.Mallocs-before.Mallocs) / runs
		}
		half, full := allocs(n), allocs(2*n)
		// One allocation per hand-off would read 1/ReadAheadBatch per
		// record, under the 0.01 the engine's other gates allow, so this
		// gate allows a quarter of that: five stray allocations over the
		// n extra records.
		if marginal := (full - half) / n; marginal > 1.0/(4*trace.ReadAheadBatch) {
			t.Errorf("closed=%v: read-ahead marginal allocations %.4f/record (half=%.1f full=%.1f), want ~0",
				closedLoop, marginal, half, full)
		}
	}
}
