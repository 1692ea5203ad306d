package workload

import (
	"testing"

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
