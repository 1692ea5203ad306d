package workload

import (
	"bytes"
	"errors"
	"runtime"
	"strings"
	"testing"
	"time"

	"esm/internal/trace"
)

// withProcs sets GOMAXPROCS for the rest of the test, so Source merges
// flat at 1 and in ranges at 2 whatever -cpu the test runs under.
func withProcs(t *testing.T, n int) {
	prev := runtime.GOMAXPROCS(n)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}

// settleGoroutines waits for the goroutine count to fall back to want:
// a producer signals its exit just before it returns.
func settleGoroutines(t *testing.T, want int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for runtime.NumGoroutine() > want {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines, want %d", runtime.NumGoroutine(), want)
		}
		runtime.Gosched()
		time.Sleep(time.Millisecond)
	}
}

// smallWorkloads generates every workload kind at a small scale.
func smallWorkloads(t *testing.T) []*Workload {
	t.Helper()
	var ws []*Workload
	for _, gen := range []func() (*Workload, error){
		func() (*Workload, error) { return GenerateFileServer(DefaultFileServerConfig().Scaled(0.05)) },
		func() (*Workload, error) {
			cfg := DefaultOLTPConfig().Scaled(0.1)
			cfg.RateScale = 0.1
			return GenerateOLTP(cfg)
		},
		func() (*Workload, error) { return GenerateDSS(DefaultDSSConfig().Scaled(0.05)) },
		func() (*Workload, error) {
			cfg := DefaultCloudBlockConfig().Scaled(0.012)
			cfg.Tenants, cfg.Volumes = 100, 2500
			return GenerateCloudBlock(cfg)
		},
		func() (*Workload, error) { return GenerateSensorArchive(DefaultSensorConfig().Scaled(0.1)) },
		func() (*Workload, error) {
			cfg := DefaultSyntheticConfig()
			cfg.Duration = 15 * time.Minute
			return GenerateSynthetic(cfg)
		},
	} {
		w, err := gen()
		if err != nil {
			t.Fatal(err)
		}
		ws = append(ws, w)
	}
	return ws
}

// encodeSource writes src to its end in the stream format.
func encodeSource(t *testing.T, src *Source) ([]byte, int64) {
	t.Helper()
	defer src.Close()
	var buf bytes.Buffer
	sw := trace.NewStreamWriter(&buf)
	var n int64
	for rec, ok := src.Next(); ok; rec, ok = src.Next() {
		if err := sw.Append(rec); err != nil {
			t.Fatal(err)
		}
		n++
	}
	if err := src.Err(); err != nil {
		t.Fatal(err)
	}
	if err := sw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), n
}

// TestSourceSplitMatchesFlat is the split merge's differential test on
// every generator: the flat merge at GOMAXPROCS 1 and the merge in
// ranges at GOMAXPROCS 2 must encode to identical stream files. The
// encoding is lossless, so the records are identical too.
func TestSourceSplitMatchesFlat(t *testing.T) {
	for _, w := range smallWorkloads(t) {
		withProcs(t, 1)
		flat, n := encodeSource(t, w.Source())
		withProcs(t, 2)
		split, m := encodeSource(t, w.Source())
		t.Logf("%s: %d records in %d streams", w.Name, n, len(w.Streams))
		if n == 0 || len(w.Streams) < 2 {
			t.Fatalf("%s: %d records in %d streams leave nothing to split", w.Name, n, len(w.Streams))
		}
		if m != n || !bytes.Equal(split, flat) {
			t.Errorf("%s: the split merge wrote %d records (%d bytes), the flat one %d (%d bytes)", w.Name, m, len(split), n, len(flat))
		}
	}
}

// TestSplitSourceCloseStopsProducers abandons a split source part-way:
// Close must stop its producers and generators, leaving no goroutine
// behind.
func TestSplitSourceCloseStopsProducers(t *testing.T) {
	withProcs(t, 2)
	w, err := GenerateFileServer(DefaultFileServerConfig().Scaled(0.05))
	if err != nil {
		t.Fatal(err)
	}
	before := runtime.NumGoroutine()
	src := w.Source()
	for range 5000 {
		if _, ok := src.Next(); !ok {
			t.Fatalf("the source ended early: %v", src.Err())
		}
	}
	if runtime.NumGoroutine() < before+2 {
		t.Fatalf("%d goroutines while reading, want the two range producers beyond %d", runtime.NumGoroutine(), before)
	}
	src.Close()
	settleGoroutines(t, before)
	src.Close()
}

// TestSplitSourceCountsFreeProcessors pins how many ranges a source merges
// in: one per processor that no read-ahead producer holds, so a source
// read on a read-ahead producer, as replay.Execute reads it, merges
// flat at GOMAXPROCS 2 and in two ranges at GOMAXPROCS 3.
func TestSplitSourceCountsFreeProcessors(t *testing.T) {
	w, err := GenerateFileServer(DefaultFileServerConfig().Scaled(0.05))
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct{ procs, ranges int }{{2, 0}, {3, 2}} {
		withProcs(t, c.procs)
		before, producing := runtime.NumGoroutine(), trace.ReadAheads()
		ra := trace.NewReadAhead(w.Source())
		if _, ok := ra.Next(); !ok {
			t.Fatalf("GOMAXPROCS %d: the source ended early: %v", c.procs, ra.Err())
		}
		if got := trace.ReadAheads() - producing - 1; got != c.ranges {
			t.Errorf("GOMAXPROCS %d under a read-ahead: %d range producers, want %d", c.procs, got, c.ranges)
		}
		ra.Close()
		settleGoroutines(t, before)
	}
}

// TestSplitSourceGeneratorPanic panics a generator in the second range
// of a split source: the panic reaches the reader as a
// *trace.SourcePanic carrying the range producer's stack, and Close then
// stops the other range.
func TestSplitSourceGeneratorPanic(t *testing.T) {
	withProcs(t, 2)
	errGen := errors.New("generator panicked")
	streams := make([]trace.ItemStream, 8)
	for i := range streams {
		item := trace.ItemID(i)
		streams[i] = trace.ItemStream{Item: item, Seq: func(yield func(trace.LogicalRecord) bool) {
			for j := 0; ; j++ {
				if item == 6 && j == 3000 {
					panic(errGen)
				}
				if !yield(trace.LogicalRecord{Time: time.Duration(j) * time.Millisecond, Item: item, Size: 4096}) {
					return
				}
			}
		}}
	}
	w := &Workload{Streams: streams, Duration: time.Hour}
	before := runtime.NumGoroutine()
	src := w.Source()
	got := func() (p any) {
		defer func() { p = recover() }()
		trace.CollectSource(src)
		return nil
	}()
	p, ok := got.(*trace.SourcePanic)
	if !ok || !errors.Is(p, errGen) {
		t.Fatalf("recovered %v, want a *trace.SourcePanic wrapping %v", got, errGen)
	}
	if !strings.Contains(string(p.Stack), "(*ReadAhead).produce") {
		t.Errorf("the re-raised panic does not carry the producer's stack:\n%s", p.Stack)
	}
	src.Close()
	settleGoroutines(t, before)
}
