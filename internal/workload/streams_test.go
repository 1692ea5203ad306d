package workload

import (
	"errors"
	"strings"
	"testing"
	"time"

	"esm/internal/trace"
)

// TestWorkloadsAreLazy pins the streaming contract: generators plan
// per-item streams, and Source re-yields the identical trace on every
// call.
func TestWorkloadsAreLazy(t *testing.T) {
	w, err := GenerateSynthetic(DefaultSyntheticConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(w.Streams) == 0 {
		t.Fatal("generator registered no streams")
	}

	first, err := trace.CollectSource(w.Source())
	if err != nil {
		t.Fatal(err)
	}
	second, err := trace.CollectSource(w.Source())
	if err != nil {
		t.Fatal(err)
	}
	if len(first) == 0 || len(first) != len(second) {
		t.Fatalf("re-iterated stream sizes differ: %d vs %d", len(first), len(second))
	}
	for i := range first {
		if first[i] != second[i] {
			t.Fatalf("record %d differs between iterations", i)
		}
	}
}

// TestSourceStopsAtDuration checks the merged stream honors the
// workload's nominal span exactly, like the old post-sort truncation.
func TestSourceStopsAtDuration(t *testing.T) {
	w, err := GenerateFileServer(DefaultFileServerConfig().Scaled(0.05))
	if err != nil {
		t.Fatal(err)
	}
	src := w.Source()
	for {
		rec, ok := src.Next()
		if !ok {
			break
		}
		if rec.Time > w.Duration {
			t.Fatalf("record at %v beyond duration %v", rec.Time, w.Duration)
		}
	}
	if err := src.Err(); err != nil {
		t.Fatal(err)
	}
}

// TestStreamsStartAtOrAfterFrom pins the bound every generator declares
// on its streams: no stream's first record precedes its From. The item
// feed leaves a stream unstarted until the replay's clock reaches From,
// so a bound set too late would fail the replay.
func TestStreamsStartAtOrAfterFrom(t *testing.T) {
	// bounded generators know some streams start late (a window, a
	// scan, a compaction); synthetic streams all may start at once.
	gens := []struct {
		name    string
		bounded bool
		gen     func(seed int64) (*Workload, error)
	}{
		{"fileserver", true, func(seed int64) (*Workload, error) {
			cfg := DefaultFileServerConfig().Scaled(0.05)
			cfg.Seed = seed
			return GenerateFileServer(cfg)
		}},
		{"dss", true, func(seed int64) (*Workload, error) {
			cfg := DefaultDSSConfig().Scaled(0.05)
			cfg.Seed = seed
			return GenerateDSS(cfg)
		}},
		{"sensor", true, func(seed int64) (*Workload, error) {
			cfg := DefaultSensorConfig()
			cfg.Seed = seed
			return GenerateSensorArchive(cfg)
		}},
		{"synthetic", false, func(seed int64) (*Workload, error) {
			cfg := DefaultSyntheticConfig()
			cfg.Seed = seed
			return GenerateSynthetic(cfg)
		}},
	}
	for _, g := range gens {
		for _, seed := range []int64{1, 42} {
			w, err := g.gen(seed)
			if err != nil {
				t.Fatal(err)
			}
			later := 0
			for i, st := range w.Streams {
				for rec := range st.Seq {
					if rec.Time < st.From {
						t.Fatalf("%s seed %d: stream %d (item %d) starts at %v, before its From %v", g.name, seed, i, st.Item, rec.Time, st.From)
					}
					if st.From > 0 {
						later++
					}
					break
				}
			}
			if g.bounded && later == 0 {
				t.Errorf("%s seed %d: no stream declares a From past zero", g.name, seed)
			}
		}
	}
}

// TestSourceRejectsBadStream reads, through the merge, a workload whose
// stream 6 of 8 breaks the generator contract: its first record
// precedes its declared From, or it emits another item's record. The
// merge must fail with an error that names the stream, wrapping a
// *trace.OrderError in the From case, rather than yield the record:
// merged flat at GOMAXPROCS 1, and at GOMAXPROCS 2 in two ranges with
// the bad stream in the second.
func TestSourceRejectsBadStream(t *testing.T) {
	steady := func(item trace.ItemID, start time.Duration, edit func(i int, r *trace.LogicalRecord)) func(func(trace.LogicalRecord) bool) {
		return func(yield func(trace.LogicalRecord) bool) {
			for i := range 50 {
				r := trace.LogicalRecord{Time: start + time.Duration(i)*time.Second, Item: item, Size: 4096, Op: trace.OpRead}
				if edit != nil {
					edit(i, &r)
				}
				if !yield(r) {
					return
				}
			}
		}
	}
	const bad = 6
	streams := make([]trace.ItemStream, 8)
	for i := range streams {
		streams[i] = trace.ItemStream{Item: trace.ItemID(i), Seq: steady(trace.ItemID(i), 0, nil)}
	}
	for _, c := range []struct {
		name  string
		bad   trace.ItemStream
		order bool
	}{
		{"before-from", trace.ItemStream{Item: bad, From: time.Minute, Seq: steady(bad, 30*time.Second, nil)}, true},
		{"wrong-item", trace.ItemStream{Item: bad, Seq: steady(bad, 0, func(i int, r *trace.LogicalRecord) {
			if i == 20 {
				r.Item = 0
			}
		})}, false},
	} {
		streams[bad] = c.bad
		w := &Workload{Streams: streams, Duration: time.Hour}
		for _, procs := range []int{1, 2} {
			withProcs(t, procs)
			src := w.Source()
			recs, err := trace.CollectSource(src)
			src.Close()
			if err == nil {
				t.Fatalf("%s GOMAXPROCS %d: the merge yielded %d records and no error", c.name, procs, len(recs))
			}
			if !strings.Contains(err.Error(), "merge source 6:") {
				t.Errorf("%s GOMAXPROCS %d: error %q does not name stream 6", c.name, procs, err)
			}
			if oe := (*trace.OrderError)(nil); errors.As(err, &oe) != c.order {
				t.Errorf("%s GOMAXPROCS %d: error %v wraps a *trace.OrderError: %v, want %v", c.name, procs, err, !c.order, c.order)
			}
		}
	}
}
