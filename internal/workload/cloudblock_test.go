package workload

import (
	"bytes"
	"testing"
	"time"

	"esm/internal/storage"
	"esm/internal/trace"
)

// testCloudBlockConfig is a small, fast configuration that still has
// every structural feature: multiple tenants, all three classes, churn.
func testCloudBlockConfig() CloudBlockConfig {
	cfg := DefaultCloudBlockConfig()
	cfg.Tenants = 20
	cfg.Volumes = 240
	cfg.Duration = 6 * time.Minute
	return cfg
}

// TestCloudBlockDeterministic requires byte-identical traces from the
// same seed — the property the tracegen determinism gate rests on. The
// stream codec is the byte-level witness.
func TestCloudBlockDeterministic(t *testing.T) {
	encode := func() []byte {
		w, err := GenerateCloudBlock(testCloudBlockConfig())
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		sw := trace.NewStreamWriter(&buf)
		src := w.Source()
		for {
			rec, ok := src.Next()
			if !ok {
				break
			}
			if err := sw.Append(rec); err != nil {
				t.Fatal(err)
			}
		}
		if err := src.Err(); err != nil {
			t.Fatal(err)
		}
		if err := sw.Close(); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	a, b := encode(), encode()
	if !bytes.Equal(a, b) {
		t.Fatalf("same seed produced different traces (%d vs %d bytes)", len(a), len(b))
	}
	cfg := testCloudBlockConfig()
	cfg.Seed++
	w, err := GenerateCloudBlock(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	sw := trace.NewStreamWriter(&buf)
	src := w.Source()
	for {
		rec, ok := src.Next()
		if !ok {
			break
		}
		if err := sw.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if bytes.Equal(a, buf.Bytes()) {
		t.Fatal("different seeds produced identical traces")
	}
}

// TestCloudBlockFitsEnclosures verifies the volume population bin-packs
// under the test bed's enclosure capacity — at default scale too, where
// 10k volumes must fit 12 x 1.7 TB.
func TestCloudBlockFitsEnclosures(t *testing.T) {
	for _, cfg := range []CloudBlockConfig{testCloudBlockConfig(), DefaultCloudBlockConfig()} {
		w, err := GenerateCloudBlock(cfg)
		if err != nil {
			t.Fatal(err)
		}
		cap := storage.DefaultConfig(cfg.Enclosures).EnclosureCapacity
		used := make([]int64, cfg.Enclosures)
		for id, enc := range w.Placement {
			used[enc] += w.Catalog.Item(trace.ItemID(id)).Size
		}
		for e, u := range used {
			if u > cap {
				t.Fatalf("%d volumes: enclosure %d provisioned %d bytes over capacity %d", cfg.Volumes, e, u, cap)
			}
		}
	}
}

// TestCloudBlockShape checks the workload's statistical promises on a
// small trace: write dominance near the configured fraction, Zipf
// tenant skew (the top tenant decile owns a disproportionate share of
// volumes), churn (some volumes start late, some end early), and that
// the trace is open-loop.
func TestCloudBlockShape(t *testing.T) {
	cfg := testCloudBlockConfig()
	w, err := GenerateCloudBlock(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if w.ClosedLoop {
		t.Fatal("cloudblock must replay open-loop")
	}
	if w.Catalog.Len() != cfg.Volumes {
		t.Fatalf("catalog has %d items, want %d volumes", w.Catalog.Len(), cfg.Volumes)
	}

	counts := zipfCounts(cfg.Tenants, cfg.Volumes, cfg.ZipfS)
	top := 0
	for k := 0; k < cfg.Tenants/10; k++ {
		top += counts[k]
	}
	if frac := float64(top) / float64(cfg.Volumes); frac < 0.25 {
		t.Fatalf("top tenant decile owns %.0f%% of volumes; want Zipf-skewed (>25%%)", frac*100)
	}

	var n, writes int64
	first := make(map[trace.ItemID]time.Duration)
	last := make(map[trace.ItemID]time.Duration)
	src := w.Source()
	for {
		rec, ok := src.Next()
		if !ok {
			break
		}
		n++
		if rec.Op == trace.OpWrite {
			writes++
		}
		if _, ok := first[rec.Item]; !ok {
			first[rec.Item] = rec.Time
		}
		last[rec.Item] = rec.Time
	}
	if err := src.Err(); err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Fatal("empty trace")
	}
	wf := float64(writes) / float64(n)
	if wf < cfg.WriteFrac-0.05 || wf > cfg.WriteFrac+0.05 {
		t.Fatalf("write fraction %.3f, want ~%.2f", wf, cfg.WriteFrac)
	}
	lateArrivals, earlyDepartures := 0, 0
	for id, ft := range first {
		if ft > cfg.Duration/5 {
			lateArrivals++
		}
		if last[id] < cfg.Duration*4/5 {
			earlyDepartures++
		}
	}
	if lateArrivals == 0 || earlyDepartures == 0 {
		t.Fatalf("no churn observed (%d late arrivals, %d early departures)", lateArrivals, earlyDepartures)
	}
}

// TestCloudBlockValidate covers the configuration guard rails.
func TestCloudBlockValidate(t *testing.T) {
	bad := []func(*CloudBlockConfig){
		func(c *CloudBlockConfig) { c.Tenants = 0 },
		func(c *CloudBlockConfig) { c.Volumes = c.Tenants - 1 },
		func(c *CloudBlockConfig) { c.Enclosures = 0 },
		func(c *CloudBlockConfig) { c.Duration = time.Minute },
		func(c *CloudBlockConfig) { c.ZipfS = 0 },
		func(c *CloudBlockConfig) { c.DayPeriod = 0 },
		func(c *CloudBlockConfig) { c.ChurnFrac = 1.5 },
		func(c *CloudBlockConfig) { c.WriteFrac = -0.1 },
	}
	for i, mutate := range bad {
		cfg := DefaultCloudBlockConfig()
		mutate(&cfg)
		if _, err := GenerateCloudBlock(cfg); err == nil {
			t.Fatalf("bad config %d accepted", i)
		}
	}
}

// TestZipfCountsExact pins the splitter's contract: totals match and
// every tenant owns at least one volume.
func TestZipfCountsExact(t *testing.T) {
	for _, tc := range []struct{ tenants, total int }{{1, 1}, {5, 5}, {20, 300}, {400, 10000}} {
		counts := zipfCounts(tc.tenants, tc.total, 1.1)
		sum := 0
		for k, c := range counts {
			if c < 1 {
				t.Fatalf("tenants=%d total=%d: tenant %d owns %d volumes", tc.tenants, tc.total, k, c)
			}
			sum += c
		}
		if sum != tc.total {
			t.Fatalf("tenants=%d: counts sum to %d, want %d", tc.tenants, sum, tc.total)
		}
		if tc.tenants > 1 && tc.total > tc.tenants && counts[0] <= counts[tc.tenants-1] {
			t.Fatalf("tenant 0 (%d volumes) not heavier than tenant %d (%d)", counts[0], tc.tenants-1, counts[tc.tenants-1])
		}
	}
}
