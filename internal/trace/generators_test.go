package trace_test

import (
	"fmt"
	"testing"
	"time"

	"esm/internal/trace"
	"esm/internal/workload"
)

// TestGeneratorStreamsMatchReference pins the lazy pipeline's output for
// every workload generator: w.Source() (batched generator pulls, the
// tournament-tree merge) must yield exactly the record sequence of the
// reference pipeline — one coroutine switch per record and a
// container/heap merge — over the same w.Streams. The reference is
// computed in-test rather than committed as hashes, because generator
// float code (e.g. cloud-block's diurnal cosine) may round differently
// on other architectures.
func TestGeneratorStreamsMatchReference(t *testing.T) {
	cloud := workload.DefaultCloudBlockConfig()
	cloud.Tenants, cloud.Volumes, cloud.Duration = 40, 2000, 4*time.Minute
	gens := []struct {
		name string
		gen  func(seed int64) (*workload.Workload, error)
	}{
		{"fileserver", func(seed int64) (*workload.Workload, error) {
			cfg := workload.DefaultFileServerConfig().Scaled(0.05)
			cfg.Seed = seed
			return workload.GenerateFileServer(cfg)
		}},
		{"cloudblock", func(seed int64) (*workload.Workload, error) {
			cfg := cloud
			cfg.Seed = seed
			return workload.GenerateCloudBlock(cfg)
		}},
		{"oltp", func(seed int64) (*workload.Workload, error) {
			cfg := workload.DefaultOLTPConfig().Scaled(0.1)
			cfg.RateScale, cfg.Seed = 0.02, seed
			return workload.GenerateOLTP(cfg)
		}},
		{"dss", func(seed int64) (*workload.Workload, error) {
			cfg := workload.DefaultDSSConfig().Scaled(0.05)
			cfg.Seed = seed
			return workload.GenerateDSS(cfg)
		}},
		{"sensor", func(seed int64) (*workload.Workload, error) {
			cfg := workload.DefaultSensorConfig()
			cfg.Duration = 20 * time.Minute
			cfg.Seed = seed
			return workload.GenerateSensorArchive(cfg)
		}},
		{"synthetic", func(seed int64) (*workload.Workload, error) {
			cfg := workload.DefaultSyntheticConfig()
			cfg.Duration, cfg.Seed = 15*time.Minute, seed
			return workload.GenerateSynthetic(cfg)
		}},
	}
	for _, g := range gens {
		for _, seed := range []int64{1, 42} {
			t.Run(fmt.Sprintf("%s/seed=%d", g.name, seed), func(t *testing.T) {
				w, err := g.gen(seed)
				if err != nil {
					t.Fatal(err)
				}
				refs := make([]trace.Source, len(w.Streams))
				for i, st := range w.Streams {
					refs[i] = trace.NewRefSeqSource(st.Seq)
				}
				ref := trace.TruncateSource(trace.RefMergeSources(refs...), w.Duration)
				got := w.Source()
				n := 0
				for {
					want, wantOK := ref.Next()
					rec, ok := got.Next()
					if ok != wantOK || rec != want {
						t.Fatalf("record %d: got %+v (ok=%v), reference %+v (ok=%v)", n, rec, ok, want, wantOK)
					}
					if !ok {
						break
					}
					n++
				}
				if err := got.Err(); err != nil {
					t.Fatal(err)
				}
				if n == 0 {
					t.Fatal("generator produced no records")
				}
				t.Logf("%d streams, %d records identical", len(w.Streams), n)
			})
		}
	}
}
