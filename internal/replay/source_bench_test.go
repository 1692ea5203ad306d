// Replay benchmarks. The streaming benchmark and its materialized twin
// demonstrate the memory claim: replaying a trace through a FileSource
// holds the live heap at O(data items), not O(records). They replay the
// same on-disk trace; compare their live-MB metrics — streaming stays
// flat while materialized carries the whole decoded slice. The
// closed-loop benchmark times the closed loop's two admission rules
// over the inputs the tools replay: a lazily generated trace, a
// materialized one and a decoded file.

package replay

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"esm/internal/core"
	"esm/internal/policy"
	"esm/internal/storage"
	"esm/internal/trace"
	"esm/internal/workload"
)

const benchItems = 64

// writeBenchTrace streams n synthetic records (round-robin over
// benchItems items, 1 ms apart, 4 KB I/Os) into a stream-format trace
// file without ever materializing them.
func writeBenchTrace(tb testing.TB, n int64) (path string, cat *trace.Catalog, placement []int, dur time.Duration) {
	tb.Helper()
	cat = trace.NewCatalog()
	const itemBytes = 256 << 20
	for i := 0; i < benchItems; i++ {
		cat.Add(fmt.Sprintf("item%02d", i), itemBytes)
		placement = append(placement, i%4)
	}
	path = filepath.Join(tb.TempDir(), "bench.trace")
	f, err := os.Create(path)
	if err != nil {
		tb.Fatal(err)
	}
	sw := trace.NewStreamWriter(f)
	const gap = time.Millisecond
	for i := int64(0); i < n; i++ {
		item := trace.ItemID(i % benchItems)
		rec := trace.LogicalRecord{
			Time:   time.Duration(i) * gap,
			Item:   item,
			Offset: (i * 4096) % (itemBytes - 4096),
			Size:   4096,
			Op:     trace.OpRead,
		}
		if i%5 == 0 {
			rec.Op = trace.OpWrite
		}
		if err := sw.Append(rec); err != nil {
			tb.Fatal(err)
		}
	}
	if err := sw.Close(); err != nil {
		tb.Fatal(err)
	}
	if err := f.Close(); err != nil {
		tb.Fatal(err)
	}
	return path, cat, placement, time.Duration(n) * gap
}

func benchRecordCount(tb testing.TB) int64 {
	if testing.Short() {
		return 1_000_000
	}
	return 10_000_000
}

// liveHeapMB returns the post-GC live heap in MB.
func liveHeapMB() float64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / (1 << 20)
}

func benchRun(cat *trace.Catalog, placement []int, dur time.Duration) Run {
	return Run{
		Catalog:   cat,
		Placement: placement,
		Storage:   storage.DefaultConfig(4),
		Policy:    policy.NoPowerSaving{},
		Duration:  dur,
	}
}

// BenchmarkReplayFileSourceStreaming replays the trace straight off
// disk. Live heap during the run is the per-item cursor state plus
// decoder buffers — independent of the record count.
func BenchmarkReplayFileSourceStreaming(b *testing.B) {
	n := benchRecordCount(b)
	path, cat, placement, dur := writeBenchTrace(b, n)
	base := liveHeapMB()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		src, err := trace.OpenFile(path)
		if err != nil {
			b.Fatal(err)
		}
		run := benchRun(cat, placement, dur)
		run.Source = src
		res, err := Execute(run)
		if err != nil {
			b.Fatal(err)
		}
		if res.Resp.Count() != n {
			b.Fatalf("replayed %d of %d records", res.Resp.Count(), n)
		}
		// The source is still reachable here, so the measured live heap
		// includes everything the replay held onto.
		b.ReportMetric(liveHeapMB()-base, "live-MB")
		src.Close()
	}
}

// BenchmarkReplayMaterialized is the twin: identical trace, but decoded
// into one slice first, the pre-refactor shape. Its live-MB metric
// scales with the record count.
func BenchmarkReplayMaterialized(b *testing.B) {
	n := benchRecordCount(b)
	path, cat, placement, dur := writeBenchTrace(b, n)
	base := liveHeapMB()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		src, err := trace.OpenFile(path)
		if err != nil {
			b.Fatal(err)
		}
		recs, err := trace.CollectSource(src)
		if err != nil {
			b.Fatal(err)
		}
		src.Close()
		run := benchRun(cat, placement, dur)
		run.Source = trace.NewSliceSource(recs)
		res, err := Execute(run)
		if err != nil {
			b.Fatal(err)
		}
		if res.Resp.Count() != n {
			b.Fatalf("replayed %d of %d records", res.Resp.Count(), n)
		}
		b.ReportMetric(liveHeapMB()-base, "live-MB")
		runtime.KeepAlive(recs)
	}
}

// BenchmarkReplayClosedLoop replays the fileserver workload (scale
// 0.25) in closed loop under ESM from each input the tools feed the
// one closed-loop engine: lazy, the workload's own source (what
// esmbench's figure runs replay), whose items start by From and read
// their own streams, generated on a second goroutine; materialized,
// the same records as a SliceSource (what esmbench's sweeps replay,
// having collected the trace once), demuxed directly into the items'
// batches; and file, the same records decoded from a stream file (what
// esmreplay -closed-loop replays), read ahead on a second goroutine
// and demuxed. Profile with -cpuprofile to attribute the time per
// layer.
func BenchmarkReplayClosedLoop(b *testing.B) {
	w, err := workload.GenerateFileServer(workload.DefaultFileServerConfig().Scaled(0.25))
	if err != nil {
		b.Fatal(err)
	}
	recs, err := trace.CollectSource(w.Source())
	if err != nil {
		b.Fatal(err)
	}
	path := writeStreamFile(b, recs)
	inputs := []struct {
		name string
		src  func() trace.Source
	}{
		{"lazy", func() trace.Source { return w.Source() }},
		{"materialized", func() trace.Source { return trace.NewSliceSource(recs) }},
		{"file", func() trace.Source {
			fs, err := trace.OpenFile(path)
			if err != nil {
				b.Fatal(err)
			}
			return fs
		}},
	}
	for _, in := range inputs {
		b.Run(in.name, func(b *testing.B) {
			var records int64
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				esm, err := core.NewESM(core.DefaultParams())
				if err != nil {
					b.Fatal(err)
				}
				src := in.src()
				res, err := Execute(Run{
					Catalog: w.Catalog, Source: src, Placement: w.Placement,
					Storage: storage.DefaultConfig(w.Enclosures), Policy: esm,
					Duration: w.Duration, ClosedLoop: true,
				})
				if c, ok := src.(io.Closer); ok {
					c.Close()
				}
				if err != nil {
					b.Fatal(err)
				}
				records += res.Resp.Count()
			}
			b.ReportMetric(float64(records)/b.Elapsed().Seconds(), "records/s")
		})
	}
}
